"""No ``src/repro`` module, function or class is used only by its own tests.

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

The same holds per symbol: every top-level function and class of ``src/``,
public or private, must be reachable from a root through resolved uses (see
:class:`SymbolGraph`).  A symbol that only unused symbols use is unused too,
so a dead helper goes with the dead class that called it.  ``ALLOWLIST``
names the few kept anyway, each with its reason.
"""

import ast
import doctest
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


# --------------------------------------------------------------- symbols
#: Symbols kept although only tests use them; one reason each.  An entry
#: that names a missing symbol, or a symbol that gained a real user, fails
#: the check, so the list cannot rot.
ALLOWLIST = {
    "repro.network.latency:ConstantLatency": (
        "test double of LatencyModel: a fixed delay for timing assertions"
    ),
    "repro.network.latency:UniformLatency": (
        "test double of LatencyModel: wide per-receiver reordering for the "
        "transport property and the FIFO and atomic-broadcast tests"
    ),
    "repro.database.history:transactions_conflict": (
        "building block of tests/oracles.py, the reference checker the "
        "linear verifier is compared against"
    ),
    "repro.harness.cells:failing_probe_cell": (
        "fault cell the SweepExecutor crash tests name by cell path; a "
        "worker process cannot import it from tests/"
    ),
    "repro.harness.cells:exiting_probe_cell": (
        "fault cell the SweepExecutor crash tests name by cell path; a "
        "worker process cannot import it from tests/"
    ),
}


def doc_example_source(text):
    """The ``>>>`` examples of one markdown page, as one module's source."""
    return "\n".join(
        example.source for example in doctest.DocTestParser().get_examples(text)
    )


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree):
    return {node.name: node for node in tree.body if isinstance(node, DEFINITIONS)}


def bindings(tree, package):
    """Each name the file's imports bind -> its targets.

    A target is a module name (``import x``) or a ``(module, name)`` pair
    (``from x import name``).  Imports inside functions count too; a name
    bound twice keeps both targets.
    """
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound.setdefault(alias.asname, []).append(alias.name)
                else:
                    head = alias.name.partition(".")[0]
                    bound.setdefault(head, []).append(head)
        elif isinstance(node, ast.ImportFrom):
            source = resolve_from(node, package)
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, []).append(
                    (source, alias.name)
                )
    return bound


class SymbolGraph:
    """Which top-level functions and classes of ``src/`` something uses.

    Uses are resolved through imports, never by word search: a name, an
    attribute chain off an imported module (``stats.ratio``) and a
    ``"module:function"`` cell path each resolve to the defining module,
    following package and module re-exports.  Roots are the consumer files
    (``bench/``, ``tools/``, ``examples/``, ``benchmarks/``), the ``>>>``
    examples of ``docs/*.md``, and the module-level statements of ``src/``
    (so ``__main__`` blocks and tables like ``EXPERIMENTS``).  An import is
    no use, and ``__all__`` names strings, so a re-export alone reaches
    nothing.  A symbol's own body adds edges, so a symbol counts as used
    only when a root reaches it.
    """

    def __init__(self, modules, packages=(), consumers=(), docs=()):
        #: Module name -> parsed source, for ``src/``.
        self.trees = {name: ast.parse(source) for name, source in modules.items()}
        self.packages = set(packages)
        #: ``(package, parsed source)`` per consumer file and docs page.
        self.consumers = [(package, ast.parse(source)) for package, source in consumers]
        self.consumers += [("", ast.parse(doc_example_source(text))) for text in docs]
        self.definitions = {name: definitions(tree) for name, tree in self.trees.items()}
        self.bindings = {
            name: bindings(tree, self.package_of(name))
            for name, tree in self.trees.items()
        }

    @classmethod
    def from_repo(cls):
        modules, packages = {}, set()
        for path in sorted((SRC / "repro").rglob("*.py")):
            name = module_name(path)
            modules[name] = path.read_text()
            if path.name == "__init__.py":
                packages.add(name)
        consumers = [
            (directory, path.read_text())
            for directory in CONSUMER_DIRS
            for path in sorted((REPO_ROOT / directory).rglob("*.py"))
        ]
        docs = [path.read_text() for path in sorted((REPO_ROOT / "docs").glob("*.md"))]
        return cls(modules, packages, consumers, docs)

    def package_of(self, module):
        return module if module in self.packages else module.rpartition(".")[0]

    def symbols(self):
        return {
            f"{module}:{name}"
            for module, names in self.definitions.items()
            for name in names
        }

    # ------------------------------------------------------------ resolution
    def member(self, module, name, seen=frozenset()):
        """What ``module.name`` is: symbols ``"m:n"`` and module names."""
        if module not in self.trees or (module, name) in seen:
            return set()
        if name in self.definitions[module]:
            return {f"{module}:{name}"}
        seen = seen | {(module, name)}
        found = set()
        for target in self.bindings[module].get(name, ()):
            found |= self.target(target, seen)
        if f"{module}.{name}" in self.trees:
            found.add(f"{module}.{name}")
        return found

    def target(self, target, seen=frozenset()):
        return {target} if isinstance(target, str) else self.member(*target, seen)

    def expression(self, node, scope):
        """What a ``Name`` or attribute chain refers to, in ``scope``."""
        if isinstance(node, ast.Name):
            return scope(node.id)
        if isinstance(node, ast.Attribute):
            found = set()
            for base in self.expression(node.value, scope):
                if ":" not in base:
                    found |= self.member(base, node.attr)
            return found
        return set()

    def uses(self, nodes, scope):
        """The symbols the given statements use."""
        used = set()
        for root in nodes:
            for node in ast.walk(root):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    used |= self.expression(node, scope)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    match = CELL_PATH.match(node.value)
                    if match:
                        module, _, function = node.value.partition(":")
                        used |= self.member(module, function)
        return {found for found in used if ":" in found}

    def module_scope(self, module):
        return lambda name: self.member(module, name)

    def file_scope(self, tree, package):
        bound = bindings(tree, package)

        def scope(name):
            found = set()
            for target in bound.get(name, ()):
                found |= self.target(target)
            return found

        return scope

    # ---------------------------------------------------------- reachability
    def unused_symbols(self):
        reached = set()
        for package, tree in self.consumers:
            reached |= self.uses([tree], self.file_scope(tree, package))
        for module, tree in self.trees.items():
            roots = [node for node in tree.body if not isinstance(node, DEFINITIONS)]
            reached |= self.uses(roots, self.module_scope(module))
        frontier = list(reached)
        while frontier:
            module, _, name = frontier.pop().partition(":")
            node = self.definitions[module][name]
            for used in self.uses([node], self.module_scope(module)) - reached:
                reached.add(used)
                frontier.append(used)
        return sorted(self.symbols() - reached)


def allowlist_problems(graph, allowlist):
    """Flagged symbols not allowlisted, and allowlist entries gone stale."""
    flagged = set(graph.unused_symbols())
    problems = [f"only tests use {symbol}" for symbol in sorted(flagged - set(allowlist))]
    for symbol in sorted(allowlist):
        if symbol not in graph.symbols():
            problems.append(f"allowlisted {symbol} does not exist")
        elif symbol not in flagged:
            problems.append(f"allowlisted {symbol} has a user outside tests")
    return problems


def test_every_symbol_is_used_outside_its_own_tests():
    assert allowlist_problems(SymbolGraph.from_repo(), ALLOWLIST) == []


def fake_graph(modules, consumers=(), docs=(), init=""):
    """A synthetic package ``repro.pkg`` (``__init__`` source ``init``)."""
    sources = {f"repro.pkg.{name}": source for name, source in modules.items()}
    sources["repro.pkg"] = init
    consumers = [("tools", source) for source in consumers]
    return SymbolGraph(sources, {"repro.pkg"}, consumers, docs)


def test_a_symbol_only_reexported_through_all_is_flagged():
    graph = fake_graph(
        {"mod": "class Orphan:\n    pass\n\ndef used():\n    pass\n"},
        consumers=["from repro.pkg import used\nused()\n"],
        init="from .mod import Orphan, used\n__all__ = ['Orphan', 'used']\n",
    )
    assert graph.unused_symbols() == ["repro.pkg.mod:Orphan"]


def test_a_symbol_only_flagged_symbols_use_is_flagged():
    graph = fake_graph(
        {
            "mod": "def helper():\n    pass\n\n"
            "def dead():\n    return helper() + ping()\n\n"
            "def ping():\n    return dead()\n\n"
            "def live():\n    pass\n"
        },
        consumers=["from repro.pkg.mod import live\nlive()\n"],
    )
    assert graph.unused_symbols() == [
        "repro.pkg.mod:dead",
        "repro.pkg.mod:helper",
        "repro.pkg.mod:ping",
    ]


def test_uses_resolve_through_imports_not_by_name():
    graph = fake_graph(
        {"stats": "def ratio():\n    pass\n\ndef mean():\n    pass\n"},
        consumers=["from repro.pkg import stats\nstats.mean()\nrow.ratio\nratio = 1\n"],
    )
    assert graph.unused_symbols() == ["repro.pkg.stats:ratio"]


def test_a_cell_path_counts_as_a_use():
    graph = fake_graph(
        {
            "cells": "def run_cell():\n    pass\n\ndef other_cell():\n    pass\n",
            "table": "CELLS = ['repro.pkg.cells:run_cell']\n",
        }
    )
    assert graph.unused_symbols() == ["repro.pkg.cells:other_cell"]


def test_a_doc_example_counts_as_a_use():
    graph = fake_graph(
        {"mod": "def shown():\n    pass\n\ndef prose_only():\n    pass\n"},
        docs=["Call `prose_only` or:\n\n>>> from repro.pkg.mod import shown\n>>> shown()\n"],
    )
    assert graph.unused_symbols() == ["repro.pkg.mod:prose_only"]


def test_a_main_block_counts_as_a_use():
    graph = fake_graph(
        {"tool": "def main():\n    pass\n\nif __name__ == '__main__':\n    main()\n"}
    )
    assert graph.unused_symbols() == []


def test_a_stale_allowlist_entry_fails():
    graph = fake_graph(
        {"mod": "def double():\n    pass\n\ndef live():\n    pass\n"},
        consumers=["from repro.pkg.mod import live\nlive()\n"],
    )
    assert allowlist_problems(graph, {"repro.pkg.mod:double": "test double"}) == []
    assert allowlist_problems(
        graph,
        {
            "repro.pkg.mod:double": "test double",
            "repro.pkg.mod:gone": "deleted since",
            "repro.pkg.mod:live": "gained a user",
        },
    ) == [
        "allowlisted repro.pkg.mod:gone does not exist",
        "allowlisted repro.pkg.mod:live has a user outside tests",
    ]
    assert allowlist_problems(graph, {}) == ["only tests use repro.pkg.mod:double"]
