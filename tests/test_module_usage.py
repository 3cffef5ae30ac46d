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
so a dead helper goes with the dead class that called it.

And per method: every public method and property of a ``src/`` class must
be named by a non-test root (see :class:`MethodUses`).  ``ALLOWLIST`` names
the few symbols and methods kept anyway, each with its reason.
"""

import ast
import doctest
from collections import Counter
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
#: Symbols (``module:name``) and methods (``module:Class.name``) kept
#: although only tests use them; one reason each.  An entry that names a
#: missing symbol or method, or one that gained a real user, fails the
#: check, so the list cannot rot.
ALLOWLIST = {
    "repro.network.latency:ConstantLatency": (
        "test double of LatencyModel: a fixed delay for timing assertions"
    ),
    "repro.network.latency:UniformLatency": (
        "test double of LatencyModel: wide per-receiver reordering for the "
        "transport property and the latency-model tests"
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
    "repro.database.snapshots:SnapshotManager.garbage_collect": (
        "the version GC that bounded store state needs (ROADMAP item 5); "
        "no run calls it until the verifier stops reading every version"
    ),
    "repro.observability.trace:TransactionTracer.signature": (
        "trace export kept until the causal-span work (ROADMAP item 3) "
        "lands or is dropped"
    ),
    "repro.observability.trace:TransactionTracer.to_jsonl": (
        "trace export kept until the causal-span work (ROADMAP item 3) "
        "lands or is dropped"
    ),
    "repro.observability.trace:TransactionTracer.write_chrome_trace": (
        "trace export kept until the causal-span work (ROADMAP item 3) "
        "lands or is dropped"
    ),
}


def is_method(entry):
    return "." in entry.partition(":")[2]


def doc_example_source(text):
    """The ``>>>`` examples of one markdown page, as one module's source."""
    return "\n".join(
        example.source for example in doctest.DocTestParser().get_examples(text)
    )


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


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


def allowlist_problems(flagged, defined, allowlist):
    """Flagged names not allowlisted, and allowlist entries gone stale."""
    flagged = set(flagged)
    problems = [f"only tests use {name}" for name in sorted(flagged - set(allowlist))]
    for name in sorted(allowlist):
        if name not in defined:
            problems.append(f"allowlisted {name} does not exist")
        elif name not in flagged:
            problems.append(f"allowlisted {name} has a user outside tests")
    return problems


def test_every_symbol_is_used_outside_its_own_tests():
    graph = SymbolGraph.from_repo()
    allowlist = {entry for entry in ALLOWLIST if not is_method(entry)}
    assert allowlist_problems(graph.unused_symbols(), graph.symbols(), allowlist) == []


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
    flagged, defined = graph.unused_symbols(), graph.symbols()
    assert allowlist_problems(flagged, defined, {"repro.pkg.mod:double"}) == []
    assert allowlist_problems(
        flagged,
        defined,
        {
            "repro.pkg.mod:double",
            "repro.pkg.mod:gone",
            "repro.pkg.mod:live",
        },
    ) == [
        "allowlisted repro.pkg.mod:gone does not exist",
        "allowlisted repro.pkg.mod:live has a user outside tests",
    ]
    assert allowlist_problems(flagged, defined, set()) == [
        "only tests use repro.pkg.mod:double"
    ]


# --------------------------------------------------------------- methods
#: A method's name written where markdown shows code: ``.name``, ``name=``
#: or a quoted ``"name"``.
TEXT_USE = re.compile(r"\.(\w+)|\b(\w+)=|[\"'](\w+)[\"']")


def names_used(node):
    """How often ``node`` names each identifier the way a method is reached.

    A use is an attribute ``.name``, a keyword ``name=`` or a string that is
    a bare identifier (which covers ``getattr(obj, "name")``).
    """
    used = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute):
            used[child.attr] += 1
        elif isinstance(child, ast.keyword) and child.arg:
            used[child.arg] += 1
        elif (
            isinstance(child, ast.Constant)
            and isinstance(child.value, str)
            and child.value.isidentifier()
        ):
            used[child.value] += 1
    return used


def names_in_text(text):
    return Counter(
        next(group for group in match.groups() if group)
        for match in TEXT_USE.finditer(text)
    )


class MethodUses:
    """Which public methods and properties of ``src/`` classes a root names.

    This is a name scan, not a resolution: a method counts as used when its
    name is used (see :func:`names_used`) anywhere in ``src/`` outside its
    own ``def``, in a consumer file, or in ``docs/*.md`` or ``README.md``.
    A shared name can hide a dead method, but a method really reached by
    attribute, keyword or ``getattr`` is never flagged.
    """

    def __init__(self, modules, consumers=(), texts=()):
        #: ``"module:Class.name"`` -> its ``def``, per public method.
        self.methods = {}
        self.used = Counter()
        for module, source in modules.items():
            tree = ast.parse(source)
            self.used += names_used(tree)
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                for item in node.body:
                    if isinstance(item, FUNCTIONS) and not item.name.startswith("_"):
                        self.methods[f"{module}:{node.name}.{item.name}"] = item
        for source in consumers:
            self.used += names_used(ast.parse(source))
        for text in texts:
            self.used += names_in_text(text)

    @classmethod
    def from_repo(cls):
        modules = {
            module_name(path): path.read_text()
            for path in sorted((SRC / "repro").rglob("*.py"))
        }
        consumers = [
            path.read_text()
            for directory in CONSUMER_DIRS
            for path in sorted((REPO_ROOT / directory).rglob("*.py"))
        ]
        pages = sorted((REPO_ROOT / "docs").glob("*.md")) + [REPO_ROOT / "README.md"]
        return cls(modules, consumers, [path.read_text() for path in pages])

    def unused_methods(self):
        return sorted(
            key
            for key, node in self.methods.items()
            if self.used[node.name] <= names_used(node)[node.name]
        )


def test_every_method_is_used_outside_its_own_tests():
    uses = MethodUses.from_repo()
    allowlist = {entry for entry in ALLOWLIST if is_method(entry)}
    assert allowlist_problems(uses.unused_methods(), uses.methods, allowlist) == []


SERVICE = (
    "class Service:\n"
    "    def by_attribute(self):\n"
    "        return self.by_attribute()\n"
    "    def by_keyword(self):\n"
    "        pass\n"
    "    def by_getattr(self):\n"
    "        pass\n"
    "    @property\n"
    "    def in_docs(self):\n"
    "        pass\n"
    "    def only_tested(self):\n"
    "        pass\n"
    "    def _private(self):\n"
    "        pass\n"
)


def test_a_method_only_a_test_reaches_is_flagged():
    test_file = "from repro.pkg.mod import Service\nService().only_tested()\n"
    uses = MethodUses({"repro.pkg.mod": SERVICE}, consumers=[test_file])
    assert "repro.pkg.mod:Service.only_tested" not in uses.unused_methods()
    uses = MethodUses({"repro.pkg.mod": SERVICE})
    assert "repro.pkg.mod:Service.only_tested" in uses.unused_methods()


@pytest.mark.parametrize(
    "method, consumer, text",
    [
        ("by_attribute", "service.by_attribute()\n", ""),
        ("by_keyword", "configure(by_keyword=1)\n", ""),
        ("by_getattr", "getattr(service, 'by_getattr')()\n", ""),
        ("in_docs", "", "Read `service.in_docs` for the value.\n"),
    ],
)
def test_an_attribute_keyword_getattr_or_docs_use_counts(method, consumer, text):
    uses = MethodUses({"repro.pkg.mod": SERVICE}, consumers=[consumer], texts=[text])
    flagged = uses.unused_methods()
    assert f"repro.pkg.mod:Service.{method}" not in flagged
    assert len(flagged) == 4 and "repro.pkg.mod:Service.only_tested" in flagged


def test_a_use_inside_its_own_def_does_not_count():
    uses = MethodUses({"repro.pkg.mod": SERVICE})
    assert "repro.pkg.mod:Service.by_attribute" in uses.unused_methods()


def test_a_stale_method_allowlist_entry_fails():
    uses = MethodUses(
        {"repro.pkg.mod": SERVICE},
        consumers=["s.by_attribute(by_keyword=getattr(s, 'by_getattr'), x=s.in_docs)\n"],
    )
    assert allowlist_problems(
        uses.unused_methods(),
        uses.methods,
        {
            "repro.pkg.mod:Service.only_tested",
            "repro.pkg.mod:Service.gone",
            "repro.pkg.mod:Service.by_keyword",
        },
    ) == [
        "allowlisted repro.pkg.mod:Service.by_keyword has a user outside tests",
        "allowlisted repro.pkg.mod:Service.gone does not exist",
    ]
    assert allowlist_problems(uses.unused_methods(), uses.methods, set()) == [
        "only tests use repro.pkg.mod:Service.only_tested"
    ]
