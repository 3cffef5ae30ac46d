#!/usr/bin/env python
"""Docs site checker: links and cited symbols resolve, examples doctest clean.

Run from the repository root (the package must be importable, e.g.
``PYTHONPATH=src python tools/check_docs.py``).  Four checks:

* every relative markdown link in ``README.md`` and ``docs/*.md`` points at
  an existing file;
* every cited ``repro.…`` symbol in ``README.md``, ``docs/*.md`` and the
  docstrings of ``src/`` resolves by import plus ``getattr`` — a Sphinx role
  (``:class:`~repro.x.Y```), an RST literal or a markdown code span — so a
  rename or a deletion cannot leave a stale reference behind;
* every cited ``tests/….py`` or ``benchmarks/….py`` file in the same texts
  exists, and a pytest node id after it (``::Class::name``) names a class
  and function defined there — found in the file's syntax tree, without
  collecting or importing the tests;
* every ``>>>`` example in ``docs/*.md`` passes under :mod:`doctest`
  (``python -m doctest`` semantics — the examples are real, deterministic
  runs of the library).

Exit status 0 when clean; each failure is printed on its own line.  The CI
docs job and ``tests/test_docs.py`` both run this module, so a broken link
or a stale example fails fast in both places.
"""

from __future__ import annotations

import ast
import doctest
import importlib
import re
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Markdown inline links, excluding pure in-page anchors ("#...").
_LINK = re.compile(r"\[[^\]]*\]\(([^)#][^)]*)\)")

#: A cited symbol: a dotted ``repro`` name right after one or two backticks,
#: so a Sphinx role (with or without ``~``), an RST literal or a code span.
_REFERENCE = re.compile(r"`{1,2}~?(repro(?:\.\w+)+)")

#: A cited test module, with the ``::Class::name`` node id after it, if any.
_TEST_NODE = re.compile(r"(?<![\w/.])((?:tests|benchmarks)/[\w/]+\.py)((?:::\w+)*)")


def doc_files() -> List[Path]:
    """The documentation files covered by the checks."""
    return [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


def check_links() -> List[str]:
    """Return one message per broken relative link."""
    failures: List[str] = []
    for doc in doc_files():
        for target in _LINK.findall(doc.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if path and not (doc.parent / path).exists():
                failures.append(
                    f"{doc.relative_to(ROOT)}: broken link -> {target}"
                )
    return failures


def cited_texts() -> List[Tuple[str, str]]:
    """``(where, text)`` for every page and every ``src/`` docstring."""
    texts = [
        (str(doc.relative_to(ROOT)), doc.read_text(encoding="utf-8"))
        for doc in doc_files()
    ]
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                docstring = ast.get_docstring(node, clean=False)
                if docstring:
                    line = getattr(node, "lineno", 1)
                    texts.append((f"{path.relative_to(ROOT)}:{line}", docstring))
    return texts


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute chain below one."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        name = ".".join(parts[:split])
        try:
            target = importlib.import_module(name)
        except ModuleNotFoundError as error:
            # Only "this prefix is no module" moves on to a shorter prefix.
            if not f"{name}.".startswith(f"{error.name}."):
                raise
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def check_references(
    texts: Optional[Iterable[Tuple[str, str]]] = None,
) -> List[str]:
    """Return one message per cited ``repro.…`` symbol that does not resolve."""
    failures: List[str] = []
    for where, text in cited_texts() if texts is None else texts:
        for dotted in _REFERENCE.findall(text):
            if not resolves(dotted):
                failures.append(f"{where}: unresolved reference -> {dotted}")
    return failures


def defines(path: Path, names: Sequence[str]) -> bool:
    """Whether the module at ``path`` defines ``names``, each inside the last."""
    body = ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
    for name in names:
        for node in body:
            if (
                isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == name
            ):
                body = node.body
                break
        else:
            return False
    return True


def check_test_references(
    texts: Optional[Iterable[Tuple[str, str]]] = None,
) -> List[str]:
    """Return one message per cited test file or node id that does not exist."""
    failures: List[str] = []
    for where, text in cited_texts() if texts is None else texts:
        for path, node in _TEST_NODE.findall(text):
            if not (ROOT / path).is_file():
                failures.append(f"{where}: missing test file -> {path}")
            elif node and not defines(ROOT / path, node.split("::")[1:]):
                failures.append(f"{where}: unresolved test id -> {path}{node}")
    return failures


def run_doctests() -> List[str]:
    """Return one message per docs page with failing doctests."""
    failures: List[str] = []
    for doc in sorted((ROOT / "docs").glob("*.md")):
        result = doctest.testfile(str(doc), module_relative=False, verbose=False)
        if result.failed:
            failures.append(
                f"{doc.relative_to(ROOT)}: {result.failed} of "
                f"{result.attempted} doctest example(s) failed"
            )
    return failures


def main(argv: List[str] = ()) -> int:
    # --links-only lets CI split the static checks (links and references,
    # which import but execute nothing) from the doctest pass (which it runs
    # via `python -m doctest docs/*.md`) without executing every example
    # twice.
    links_only = "--links-only" in argv
    failures = check_links() + check_references() + check_test_references()
    if not links_only:
        failures += run_doctests()
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    checked = "links and references" if links_only else "links, references and doctests"
    print(f"docs OK: {len(doc_files())} files, {checked} clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
