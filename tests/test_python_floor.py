"""``src/repro`` runs on its oldest supported Python (``requires-python``).

The package supports Python 3.9, and only one CI job runs it there.  These
checks catch the two ways a change most easily breaks 3.9 without running
it: newer syntax (``match``, parenthesised context managers, ``except*``),
which ``ast.parse`` refuses under ``feature_version=(3, 9)``; and
``dataclass`` / ``field`` options that appeared in 3.10 (``slots=`` and
``kw_only=``), which parse everywhere but raise ``TypeError`` at import on
3.9.

A third check keeps ``@dataclass`` to the configuration classes.  Every
process pays ``dataclasses`` to generate and compile each decorated class's
methods at import, so every other record of the packages a cell imports is
a ``typing.NamedTuple`` or a class with ``__slots__`` and a written-out
``__init__`` (``dataclass(slots=True)`` would need 3.10).
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
#: Packages no benchmark cell imports: the record rule does not cover them.
UNSCANNED_PACKAGES = {"harness", "analysis"}
_KEYWORD_BUILT = "keyword-built user API, validated in __post_init__"
#: The only dataclasses left in the scanned packages, each with its reason.
CONFIGURATION_DATACLASSES = {
    "core/config.py:ProtocolConfig": (
        "keyword-built user API; ShardingConfig.shard_cluster_config copies "
        "its fields() into every shard's ClusterConfig"
    ),
    "core/config.py:ClusterConfig": "extends ProtocolConfig's fields with one group's shape",
    "core/config.py:ShardingConfig": "extends ProtocolConfig's fields with the shard layout",
    "core/admission.py:AdmissionConfig": _KEYWORD_BUILT,
    "broadcast/batching.py:BatchingConfig": _KEYWORD_BUILT,
    "failure/suspicion.py:FailureDetectionConfig": _KEYWORD_BUILT,
    "workloads/specs.py:WorkloadSpec": _KEYWORD_BUILT,
    "workloads/sharded.py:ShardedWorkloadSpec": _KEYWORD_BUILT,
    "workloads/arrivals.py:OpenLoopSpec": _KEYWORD_BUILT,
}


def _ids(paths):
    return [str(path.relative_to(PACKAGE_DIR)) for path in paths]


def _tail_name(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):  # dataclasses.dataclass
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _called_name(call: ast.Call) -> str:
    return _tail_name(call.func)


def newer_dataclass_options(source: str) -> list:
    """``(line, call, keyword)`` of every 3.10-only dataclass option in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _called_name(node) in DATACLASS_CALLS:
            for keyword in node.keywords:
                if keyword.arg in NEWER_OPTIONS:
                    found.append((node.lineno, _called_name(node), keyword.arg))
    return sorted(found)


def dataclass_names(source: str) -> list:
    """Names of the classes in ``source`` decorated with ``dataclass``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call):  # @dataclass(frozen=True)
                    decorator = decorator.func
                if _tail_name(decorator) == "dataclass":
                    names.append(node.name)
    return names


def test_the_package_has_sources():
    assert len(SOURCES) > 50


@pytest.mark.parametrize("path", SOURCES, ids=_ids(SOURCES))
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


@pytest.mark.parametrize("path", SOURCES, ids=_ids(SOURCES))
def test_no_dataclass_option_newer_than_the_floor(path):
    assert newer_dataclass_options(path.read_text(encoding="utf-8")) == []


def test_only_the_configuration_classes_are_dataclasses():
    found = {
        f"{path.relative_to(PACKAGE_DIR).as_posix()}:{name}"
        for path in SOURCES
        if path.relative_to(PACKAGE_DIR).parts[0] not in UNSCANNED_PACKAGES
        for name in dataclass_names(path.read_text(encoding="utf-8"))
    }
    assert found == set(CONFIGURATION_DATACLASSES)


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
    records = (
        "class D(NamedTuple):\n"
        "    w: int\n"
        "class E:\n"
        "    __slots__ = ('v',)\n"
        "@functools.total_ordering\n"
        "class F:\n"
        "    pass\n"
    )
    assert dataclass_names(source + records) == ["A", "B", "C"]
