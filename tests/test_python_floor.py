"""``src/repro`` runs on its oldest supported Python (``requires-python``).

The package supports Python 3.9, and only one CI job runs it there.  These
checks catch the two ways a change most easily breaks 3.9 without running
it: newer syntax (``match``, parenthesised context managers, ``except*``),
which ``ast.parse`` refuses under ``feature_version=(3, 9)``; and
``dataclass`` / ``field`` options that appeared in 3.10 (``slots=`` and
``kw_only=``), which parse everywhere but raise ``TypeError`` at import on
3.9.
"""

import ast
from pathlib import Path

import pytest

import repro

PACKAGE_DIR = Path(repro.__file__).resolve().parent
SOURCES = sorted(PACKAGE_DIR.rglob("*.py"))
FLOOR = (3, 9)
#: Keyword arguments of ``dataclass(...)`` and ``field(...)`` that need 3.10.
NEWER_OPTIONS = {"slots", "kw_only"}
DATACLASS_CALLS = {"dataclass", "field"}


def _ids(paths):
    return [str(path.relative_to(PACKAGE_DIR)) for path in paths]


def _called_name(call: ast.Call) -> str:
    function = call.func
    if isinstance(function, ast.Attribute):  # dataclasses.dataclass(...)
        return function.attr
    if isinstance(function, ast.Name):
        return function.id
    return ""


def newer_dataclass_options(source: str) -> list:
    """``(line, call, keyword)`` of every 3.10-only dataclass option in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _called_name(node) in DATACLASS_CALLS:
            for keyword in node.keywords:
                if keyword.arg in NEWER_OPTIONS:
                    found.append((node.lineno, _called_name(node), keyword.arg))
    return sorted(found)


def test_the_package_has_sources():
    assert len(SOURCES) > 50


@pytest.mark.parametrize("path", SOURCES, ids=_ids(SOURCES))
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


@pytest.mark.parametrize("path", SOURCES, ids=_ids(SOURCES))
def test_no_dataclass_option_newer_than_the_floor(path):
    assert newer_dataclass_options(path.read_text(encoding="utf-8")) == []


def test_the_checks_catch_what_they_name():
    with pytest.raises(SyntaxError):
        ast.parse("match x:\n    case 1:\n        pass\n", feature_version=FLOOR)
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass(slots=True)\n"
        "class A:\n"
        "    x: int = field(kw_only=True)\n"
        "@dataclasses.dataclass(frozen=True, kw_only=True)\n"
        "class B:\n"
        "    y: int\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    z: int = field(default=0)\n"
    )
    assert newer_dataclass_options(source) == [
        (3, "dataclass", "slots"),
        (5, "field", "kw_only"),
        (6, "dataclass", "kw_only"),
    ]
