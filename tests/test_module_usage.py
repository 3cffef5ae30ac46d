"""No ``src/repro`` module is imported only by its own tests.

A module that nothing but its own test file runs is code the library
carries without using (ROADMAP item 2).  This check builds the static
import graph of ``src/`` and of the repo's other consumers — ``bench/``,
``tools/``, ``examples/`` and ``benchmarks/`` — with ``tests/`` left out,
and requires every non-package module to be used.  A module counts as used
when any of these holds:

* a non-``__init__`` module of ``src/``, or a consumer file, imports it —
  directly, or through a package re-export it names;
* a package ``__init__`` imports a name from it and uses that name outside
  ``__all__`` (as ``repro.analysis.rules.default_rules`` does);
* it is named as a ``"module:function"`` cell path (the sweep executor's
  runner strings);
* it has a ``__main__`` block (it is an entry point).

A re-export that only lands in ``__all__`` does not count: that is how a
module only its own tests import stays reachable from a package.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
CONSUMER_DIRS = ("bench", "tools", "examples", "benchmarks")
CELL_PATH = re.compile(r"^(repro(?:\.\w+)+):\w+$")


def module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def resolve_from(node, package):
    """Absolute module of an ``ImportFrom`` made inside ``package``."""
    if not node.level:
        return node.module
    parts = package.split(".")
    base = parts[: len(parts) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def imports_of(tree, package):
    """``(module, names)`` per import; ``names`` is None for ``import x``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            yield resolve_from(node, package), [alias.name for alias in node.names]


def names_used_outside_all(tree):
    used = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            continue
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                used.add(child.id)
    return used


def has_main_block(tree):
    return any(
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
        for node in tree.body
    )


def cell_paths(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = CELL_PATH.match(node.value)
            if match:
                yield match.group(1)


class ImportGraph:
    def __init__(self):
        self.trees = {}
        self.packages = set()
        for path in sorted((SRC / "repro").rglob("*.py")):
            name = module_name(path)
            self.trees[name] = ast.parse(path.read_text(), filename=str(path))
            if path.name == "__init__.py":
                self.packages.add(name)
        #: Per package: each name its ``__init__`` binds -> the source module.
        self.reexports = {}
        for package in self.packages:
            bindings = self.reexports[package] = {}
            for node in self.trees[package].body:
                if isinstance(node, ast.ImportFrom) and node.level:
                    source = resolve_from(node, package)
                    for alias in node.names:
                        bindings[alias.asname or alias.name] = source
        self.used = set()

    def mark(self, target, names=None):
        if target in self.trees:
            self.used.add(target)
        for name in names or ():
            submodule = f"{target}.{name}"
            if submodule in self.trees:
                self.mark(submodule)
            elif name in self.reexports.get(target, {}):
                self.mark(self.reexports[target][name], [name])

    def consume(self, tree, package):
        for target, names in imports_of(tree, package):
            self.mark(target, names)
        for target in cell_paths(tree):
            self.mark(target)

    def unused_modules(self):
        for name, tree in self.trees.items():
            if name in self.packages:
                used = names_used_outside_all(tree)
                for bound, source in self.reexports[name].items():
                    if bound in used:
                        self.mark(source, [bound])
                for target in cell_paths(tree):
                    self.mark(target)
            else:
                self.consume(tree, name.rpartition(".")[0])
                if has_main_block(tree):
                    self.mark(name)
        for directory in CONSUMER_DIRS:
            for path in sorted((REPO_ROOT / directory).rglob("*.py")):
                tree = ast.parse(path.read_text(), filename=str(path))
                self.consume(tree, directory)
        return sorted(
            name
            for name in self.trees
            if name not in self.packages and name not in self.used
        )


def test_every_module_is_used_outside_its_own_tests():
    assert ImportGraph().unused_modules() == []


def add_package(graph, package, source, reexports=None):
    graph.trees[package] = ast.parse(source)
    graph.packages.add(package)
    graph.reexports[package] = dict(reexports or {})


def test_a_module_only_reexported_through_all_is_flagged():
    graph = ImportGraph()
    graph.trees["repro.broadcast.orphan"] = ast.parse("class Orphan:\n    pass\n")
    graph.reexports["repro.broadcast"]["Orphan"] = "repro.broadcast.orphan"
    assert graph.unused_modules() == ["repro.broadcast.orphan"]


def test_a_reexport_the_init_uses_outside_all_counts_as_used():
    graph = ImportGraph()
    add_package(
        graph,
        "repro.fakepkg",
        "from .orphan import Orphan\n"
        "__all__ = ['Orphan', 'default']\n"
        "def default():\n"
        "    return Orphan()\n",
        {"Orphan": "repro.fakepkg.orphan"},
    )
    graph.trees["repro.fakepkg.orphan"] = ast.parse("class Orphan:\n    pass\n")
    assert graph.unused_modules() == []


def test_a_cell_path_counts_as_used():
    graph = ImportGraph()
    add_package(graph, "repro.fakepkg", "RUNNER = 'repro.fakepkg.cells:run_cell'\n")
    graph.trees["repro.fakepkg.cells"] = ast.parse("def run_cell():\n    pass\n")
    assert graph.unused_modules() == []


def test_a_module_with_a_main_block_counts_as_used():
    graph = ImportGraph()
    graph.trees["repro.broadcast.tool"] = ast.parse(
        "def main():\n    pass\n\nif __name__ == '__main__':\n    main()\n"
    )
    assert graph.unused_modules() == []


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.broadcast.consensus", None),
        ("repro.baselines.conservative", None),
        ("repro.simulation", "Timeout"),
        ("repro.errors", "ConsensusError"),
    ],
)
def test_code_only_its_own_tests_ran_stays_deleted(module, name):
    if name is None:
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    else:
        assert not hasattr(importlib.import_module(module), name)
