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
be named by a non-test root (see :class:`MethodUses`).

And per option: every defaulted parameter of a function, method or
constructor, and every defaulted dataclass field, must be set to a
non-default value by a non-test root (see :class:`OptionUses`), since a
value only tests turn keeps a code path no run takes.  ``ALLOWLIST`` names
the few symbols, methods and options kept anyway, each with its reason.

Run as a script, it prints how many options ``src/`` has, how many no
non-test root sets, and how many of those are allowlisted:
``PYTHONPATH=src python tests/test_module_usage.py``.
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
#: Symbols (``module:name``), methods (``module:Class.name``) and options
#: (``module:Class.field=``, ``module:function(name=)``) kept although only
#: tests use or set them; one reason each.  An option is kept only as a test
#: seam, a checker strictness input or a deployment setting.  An entry that
#: names a missing symbol, method or option, or one that gained a real user,
#: fails the check, so the list cannot rot.
ALLOWLIST = {
    "repro.network.latency:ConstantLatency": (
        "test double of LatencyModel: a fixed delay for timing assertions"
    ),
    "repro.network.latency:UniformLatency": (
        "test double of LatencyModel: wide per-receiver reordering for the "
        "transport property and the latency-model tests"
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
    "repro.workloads.generator:WorkloadPlan.operations": (
        "the record view of a plan's columns that the workload tests compare "
        "plans by (plans became columns under ROADMAP item 5)"
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
    "repro.failure.suspicion:FailureDetectionConfig.heartbeat_interval=": (
        "deployment setting: detector timings scale with the network delay"
    ),
    "repro.failure.suspicion:FailureDetectionConfig.initial_timeout=": (
        "deployment setting: detector timings scale with the network delay"
    ),
    "repro.failure.suspicion:FailureDetectionConfig.timeout_increment=": (
        "deployment setting: detector timings scale with the network delay"
    ),
    "repro.failure.suspicion:FailureDetectionConfig.quorum=": (
        "deployment setting: the suspicion quorum scales with the group size"
    ),
    "repro.harness.parallel:SweepExecutor(clock=)": (
        "test seam: the sweep tests substitute a fake clock"
    ),
    "repro.network.latency:ConstantLatency(delay=)": (
        "test seam: the delay of the ConstantLatency test double"
    ),
    "repro.network.latency:UniformLatency(minimum=)": (
        "test seam: the interval of the UniformLatency test double"
    ),
    "repro.network.latency:UniformLatency(maximum=)": (
        "test seam: the interval of the UniformLatency test double"
    ),
    "repro.analysis.engine:LintEngine.lint_source(path=)": (
        "test seam: the rule tests lint a source string under a fixture path"
    ),
    "repro.analysis.engine:LintEngine.lint_source(scope_path=)": (
        "test seam: the rule tests lint a source string under a fixture path"
    ),
    "repro.analysis.engine:LintEngine.lint_paths(display_base=)": (
        "test seam: the repo-is-clean tests show findings relative to the "
        "repository root, whatever directory pytest runs in"
    ),
    "repro.verification.properties:check_broadcast_properties(expected_broadcasts=)": (
        "checker strictness input: tests name the messages that must have "
        "been delivered, which makes a lost broadcast a violation"
    ),
    "repro.chaos.scenarios:random_fuzz(rate=)": (
        "checker strictness input: the overdriven endurance test offers "
        "past the knee so the fault soup runs with the valve shedding"
    ),
    "repro.chaos.scenarios:random_fuzz(admission=)": (
        "checker strictness input: the overdriven endurance test narrows "
        "the watermarks so the fault soup runs with the valve shedding"
    ),
    "repro.workloads.sharded:ShardedWorkloadSpec.class_skew=": (
        "checker strictness input: the bursty-query regression test skews "
        "the load so queries race out-of-order commits of a hot class"
    ),
    "repro.workloads.sharded:ShardedWorkloadSpec.query_interval=": (
        "checker strictness input: the bursty-query regression test packs "
        "queries between updates so a snapshot frontier gap would show"
    ),
}


def is_method(entry):
    return "." in entry.partition(":")[2] and not is_option(entry)


def is_option(entry):
    return entry.endswith("=") or entry.endswith("=)")


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
    allowlist = {
        entry for entry in ALLOWLIST if not is_method(entry) and not is_option(entry)
    }
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
#: A method named in prose with its class: ``Class.method``, or the end of a
#: ``repro.…`` path.  A bare ``.name`` in prose may be any object's.
TEXT_USE = re.compile(r"\b(?:repro(?:\.\w+)*\.)?([A-Z]\w*\.\w+)")


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


def methods_in_text(text):
    """How often ``text`` names each ``Class.method``."""
    return Counter(match.group(1) for match in TEXT_USE.finditer(text))


class MethodUses:
    """Which public methods and properties of ``src/`` classes a root names.

    This is a name scan, not a resolution: a method counts as used when its
    name is used (see :func:`names_used`) anywhere in ``src/`` outside its
    own ``def``, in a consumer file or in a ``>>>`` example of ``docs/*.md``
    or ``README.md``, or when their prose names it with its class (see
    :func:`methods_in_text`).
    A shared name can hide a dead method, but a method really reached by
    attribute, keyword or ``getattr`` is never flagged.
    """

    def __init__(self, modules, consumers=(), texts=()):
        #: ``"module:Class.name"`` -> its ``def``, per public method.
        self.methods = {}
        self.used = Counter()
        #: ``"Class.name"`` -> how often the docs name it.
        self.documented = Counter()
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
            self.documented += methods_in_text(text)

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
        texts = [path.read_text() for path in pages]
        # A page's ``>>>`` examples are code the docs checker runs.
        consumers += [doc_example_source(text) for text in texts]
        return cls(modules, consumers, texts)

    def unused_methods(self):
        return sorted(
            key
            for key, node in self.methods.items()
            if self.used[node.name] <= names_used(node)[node.name]
            and not self.documented[key.split(":", 1)[1]]
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
        ("in_docs", "", "Read `Service.in_docs` for the value.\n"),
        ("in_docs", "", "See `repro.pkg.mod.Service.in_docs`.\n"),
        ("in_docs", doc_example_source(">>> service.in_docs\n"), ""),
    ],
    ids=["attribute", "keyword", "getattr", "docs_class", "docs_path", "docs_example"],
)
def test_an_attribute_keyword_getattr_or_docs_use_counts(method, consumer, text):
    uses = MethodUses({"repro.pkg.mod": SERVICE}, consumers=[consumer], texts=[text])
    flagged = uses.unused_methods()
    assert f"repro.pkg.mod:Service.{method}" not in flagged
    assert len(flagged) == 4 and "repro.pkg.mod:Service.only_tested" in flagged


@pytest.mark.parametrize(
    "text",
    [
        "Read `service.in_docs` for the value.\n",
        "Like `random.in_docs()`, it keeps nothing.\n",
        "Pass `in_docs=True`, or look up `'in_docs'`.\n",
        "See `Other.in_docs`.\n",
    ],
    ids=["instance", "other_module", "keyword_or_string", "other_class"],
)
def test_prose_alone_keeps_no_method_alive(text):
    # Only a mention with the method's own class, or a ``repro.`` path to
    # it, counts; a bare name in prose may be anything's.
    uses = MethodUses({"repro.pkg.mod": SERVICE}, texts=[text])
    assert "repro.pkg.mod:Service.in_docs" in uses.unused_methods()


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


# --------------------------------------------------------------- options
def defaults(function):
    """Parameter name -> its default expression."""
    args = function.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += zip(args.kwonlyargs, args.kw_defaults)
    return {arg.arg: default for arg, default in pairs if default is not None}


def callee(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def decorator_names(node):
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Name):
            yield decorator.id
        elif isinstance(decorator, ast.Attribute):
            yield decorator.attr


def base_name(node):
    """The name of a class's first base, or None."""
    base = node.bases[0] if node.bases else None
    if isinstance(base, ast.Name):
        return base.id
    return base.attr if isinstance(base, ast.Attribute) else None


def local_dicts(function):
    """The local dicts ``function`` may splat: name -> ``(keyword, value)`` pairs.

    A dict is the function's ``**`` parameter or made by
    ``name = dict(k=v, ...)``, and grown by ``name["k"] = v``,
    ``name.setdefault("k", v)`` and ``name.update(other)``.  A ``**other``
    or an ``update(other)`` is the pair ``(None, other)``.
    """
    found = {function.args.kwarg.arg: []} if function.args.kwarg else {}
    nodes = list(ast.walk(function))
    for node in nodes:
        target = getattr(node, "target", None) or getattr(node, "targets", [None])[0]
        if (
            isinstance(node, (ast.Assign, ast.AnnAssign))
            and isinstance(target, ast.Name)
            and isinstance(node.value, ast.Call)
            and callee(node.value) == "dict"
        ):
            found[target.id] = [
                (keyword.arg, keyword.value) for keyword in node.value.keywords
            ]
    for node in nodes:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Subscript):
            target = node.targets[0]
            if (
                isinstance(target.value, ast.Name)
                and target.value.id in found
                and isinstance(target.slice, ast.Constant)
            ):
                found[target.value.id].append((target.slice.value, node.value))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in found
        ):
            name = node.func.value.id
            if node.func.attr == "update":
                found[name] += [(None, argument) for argument in node.args]
            elif node.func.attr == "setdefault" and isinstance(node.args[0], ast.Constant):
                found[name].append((node.args[0].value, node.args[1]))
    return found


def is_dotted_name(node):
    """Whether ``node`` is a name or an attribute chain on one (``time.perf_counter``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name)


def same_literal(value, default):
    """Whether ``value`` is written as the literal or (dotted) name ``default`` is."""
    literal = isinstance(default, (ast.Constant, ast.UnaryOp, ast.Tuple)) or is_dotted_name(
        default
    )
    return literal and ast.dump(value) == ast.dump(default)


@pytest.mark.parametrize(
    "value, default, same",
    [
        ("3", "3", True),
        ("-1", "-1", True),
        ("(1, 2)", "(1, 2)", True),
        ("perf_counter", "perf_counter", True),
        ("time.perf_counter", "time.perf_counter", True),
        ("repro.types.LIMIT", "repro.types.LIMIT", True),
        ("time.monotonic", "time.perf_counter", False),
        ("perf_counter", "time.perf_counter", False),
        ("make().clock", "make().clock", False),
        ("[1]", "[1]", False),
    ],
)
def test_a_default_is_the_same_literal_only_when_written_alike(value, default, same):
    # A call or a list is not a literal: two written alike may differ.
    value, default = (ast.parse(source, mode="eval").body for source in (value, default))
    assert same_literal(value, default) is same


class Scope:
    """A function, or a module body, and the calls made directly in it."""

    def __init__(self, identifier=None, function=None, owner=None, nested=False):
        #: ``module:name``, ``module:Class.name``, or ``module:Class`` for a
        #: constructor; None for a module body.
        self.identifier = identifier
        self.function = function
        #: The class a method is defined in.
        self.owner = owner
        #: Whether the function is defined inside another function.
        self.nested = nested
        self.calls = []


class OptionUses:
    """Which options a non-test root sets to a non-default value.

    An option is a defaulted parameter of a ``src/`` function
    (``module:function(name=)``), method (``module:Class.method(name=)``) or
    constructor (``module:Class(name=)``), or a defaulted dataclass field
    (``module:Class.field=``).  A parameter of a nested function is none,
    and so is a field the constructor does not take (``init=False``, or a
    ``ClassVar`` constant).

    An option is set by an argument, keyword or positional, passed to its
    callable, or to a forwarder: a function that hands one of its
    parameters, or its ``**`` parameter, on to the callable or to another
    forwarder, also through a local dict (see :func:`local_dicts`) splatted
    as ``**name``.  A forwarder's own parameter default counts as a value it
    passes.  A value written as the option's literal default is does not
    count.  A copy ``name=owner.name`` takes the verdict of the other
    options called ``name``: ``ordering_mode=config.ordering_mode`` is set
    when the configuration field is.  A copy always sets when a required
    parameter, a field without a default or a class constant has that name,
    since the copied value is then no option's default.  A call through a
    module-level table (``SCENARIOS[name](...)``, or a local bound to
    ``SCENARIOS[name]``) calls every function the table names.

    Callees are matched by name: a keyword to an unrelated callee sets
    nothing, and a call reaches every callable of its name.
    """

    def __init__(self, modules, consumers=()):
        self.scopes = []
        #: Class name -> ``(id, ClassDef)``.
        self.classes = {}
        #: Option key -> its default expression.
        self.options = {}
        #: Callable id -> keyword -> the option keys the keyword sets.
        self.accepts = {}
        #: Callable id -> the parameters its positional arguments bind to.
        self.positional = {}
        #: Call name -> the ids of the callables a call of that name reaches.
        self.callees = {}
        #: The names of required parameters and fields, which a copy always sets.
        self.required = set()
        trees = [(module, ast.parse(source)) for module, source in modules.items()]
        trees += [
            (f"<consumer {index}>", ast.parse(source))
            for index, source in enumerate(consumers)
        ]
        for module, tree in trees:
            root = Scope()
            self.scopes.append(root)
            self.visit(tree, module, "", None, root)
        for scope in self.scopes:
            if scope.function is not None:
                self.define(scope)
        for name in list(self.classes):
            self.constructor(name)
        #: The names of the module-level tables of callables.
        self.tables = set()
        for _, tree in trees:
            self.table(tree)
        #: Option name -> the keys of every option of that name.
        self.named = {}
        for key in self.options:
            name = key.rstrip("=)").rpartition("(")[2].rpartition(".")[2]
            self.named.setdefault(name, set()).add(key)
        #: The option keys some root sets to a non-default value.
        self.assigned = set()
        while self.propagate():
            pass

    # ------------------------------------------------------------ definitions
    def visit(self, node, module, path, owner, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                constructor = owner is not None and child.name == "__init__"
                name = path if constructor else f"{path}.{child.name}"
                inner = Scope(f"{module}:{name[1:]}", child, owner, scope.function is not None)
                self.scopes.append(inner)
                self.visit(child, module, name, None, inner)
            elif isinstance(child, ast.ClassDef):
                name = f"{path}.{child.name}"
                self.classes.setdefault(child.name, (f"{module}:{name[1:]}", child))
                self.required.update(
                    item.target.id
                    for item in child.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and "ClassVar" in ast.dump(item.annotation)
                )
                self.visit(child, module, name, child, scope)
            else:
                if isinstance(child, ast.Call):
                    scope.calls.append(child)
                self.visit(child, module, path, owner, scope)

    def define(self, scope):
        function, identifier = scope.function, scope.identifier
        args = function.args
        positional = [arg.arg for arg in args.posonlyargs + args.args]
        if scope.owner is not None and "staticmethod" not in decorator_names(function):
            positional = positional[1:]
        self.positional[identifier] = positional
        accepted = self.accepts[identifier] = {
            name: set() for name in positional + [arg.arg for arg in args.kwonlyargs]
        }
        if not scope.nested and not identifier.startswith("<"):
            optional = defaults(function)
            self.required.update(set(accepted) - set(optional))
            for name, default in optional.items():
                key = f"{identifier}({name}=)"
                self.options[key] = default
                accepted[name].add(key)
        constructor = scope.owner is not None and function.name == "__init__"
        name = scope.owner.name if constructor else function.name
        self.callees.setdefault(name, []).append(identifier)

    def constructor(self, name, seen=()):
        """The ids a call of class ``name`` reaches.

        That is its ``__init__``, its dataclass fields, or else what a call
        of its first base reaches.
        """
        identifier, node = self.classes[name]
        if name in self.callees or name in seen:
            return self.callees.get(name, [])
        if "dataclass" in decorator_names(node):
            accepted = self.accepts[identifier] = {}
            for field, key, default in self.fields(name):
                accepted.setdefault(field, set())
                if key is None:
                    self.required.add(field)
                else:
                    self.options[key] = default
                    accepted[field].add(key)
            self.positional[identifier] = list(accepted)
            reached = [identifier]
        else:
            base = base_name(node)
            reached = self.constructor(base, seen + (name,)) if base in self.classes else []
        self.callees[name] = reached
        return reached

    def fields(self, name):
        """``(field, key or None, default)`` per field of a dataclass, bases first."""
        identifier, node = self.classes[name]
        base = base_name(node)
        found = []
        if base in self.classes and base != name:
            if "dataclass" in decorator_names(self.classes[base][1]):
                found = self.fields(base)
        for item in node.body:
            if not isinstance(item, ast.AnnAssign) or not isinstance(item.target, ast.Name):
                continue
            if "ClassVar" in ast.dump(item.annotation):
                continue
            if "keyword(arg='init', value=Constant(value=False))" not in ast.dump(
                item.value or ast.Pass()
            ):
                key = f"{identifier}.{item.target.id}=" if item.value is not None else None
                found.append((item.target.id, key, item.value))
        return found

    def table(self, tree):
        """Register each module-level table that names callables."""
        for node in tree.body:
            if isinstance(node, ast.Assign):
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target = node.target
            else:
                continue
            value = node.value
            entries = value.values if isinstance(value, ast.Dict) else getattr(value, "elts", ())
            reached = [
                identifier
                for entry in entries
                if isinstance(entry, ast.Name)
                for identifier in self.callees.get(entry.id, ())
            ]
            if reached and isinstance(target, ast.Name):
                self.tables.add(target.id)
                self.callees.setdefault(target.id, []).extend(reached)

    # ------------------------------------------------------------ propagation
    def resolve(self, call, scope, aliases):
        """``(name, positional arguments)`` of what ``call`` calls."""
        func, args = call.func, call.args
        if callee(call) == "partial" and args:
            func, args = args[0], args[1:]
        if isinstance(func, ast.Subscript):
            func = func.value
        if isinstance(func, ast.Name):
            name = aliases.get(func.id, func.id)
            if name == "cls" and scope.owner is not None:
                name = scope.owner.name
            return name, args
        if isinstance(func, ast.Attribute):
            if (
                func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and callee(func.value) == "super"
                and scope.owner is not None
            ):
                return base_name(scope.owner), args
            return func.attr, args
        return None, args

    def aliases(self, function):
        """``local = TABLE[...]`` in ``function``: local -> the table's name."""
        return {
            node.targets[0].id: node.value.value.id
            for node in ast.walk(function)
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Subscript)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in self.tables
        }

    def arguments(self, target, args, keywords, dicts, splat):
        """``(keyword, value)`` per argument a call binds to ``target``.

        ``(None, None)`` stands for the caller's own ``**`` parameter.
        """
        for name, value in zip(self.positional[target], args):
            if isinstance(value, ast.Starred):
                break
            yield name, value
        for keyword in keywords:
            if keyword.arg:
                yield keyword.arg, keyword.value
            else:
                yield from self.spread(keyword.value, dicts, splat)

    def spread(self, value, dicts, splat, seen=()):
        if not isinstance(value, ast.Name):
            return
        if value.id == splat:
            yield None, None
        if value.id in dicts and value.id not in seen:
            for keyword, item in dicts[value.id]:
                if keyword is None:
                    yield from self.spread(item, dicts, splat, seen + (value.id,))
                else:
                    yield keyword, item

    def propagate(self):
        """One pass over every call; whether an option or forwarder grew."""
        before = self.size()
        for scope in self.scopes:
            function = scope.function
            own = self.accepts[scope.identifier] if function else {}
            forwardable = set(own)
            splat = function.args.kwarg.arg if function and function.args.kwarg else None
            dicts = local_dicts(function) if function else {}
            aliases = self.aliases(function) if function else {}
            for call in scope.calls:
                name, args = self.resolve(call, scope, aliases)
                for target in self.callees.get(name, ()):
                    accepted = self.accepts[target]
                    for keyword, value in self.arguments(target, args, call.keywords, dicts, splat):
                        if keyword is None:
                            for keyword, keys in list(accepted.items()):
                                own.setdefault(keyword, set()).update(keys)
                            continue
                        keys = accepted.get(keyword, set())
                        if isinstance(value, ast.Name) and value.id in forwardable:
                            own[value.id] |= keys
                        elif isinstance(value, ast.Attribute) and value.attr == keyword:
                            copied = self.named.get(keyword, set()) - keys
                            if keyword in self.required or self.assigned & copied:
                                self.assigned |= keys
                        else:
                            self.assign(keys, value)
            for parameter, default in (defaults(function) if function else {}).items():
                self.assign(own[parameter], default)
        return self.size() != before

    def size(self):
        return len(self.assigned) + sum(
            len(keys) for accepted in self.accepts.values() for keys in accepted.values()
        )

    def assign(self, keys, value):
        """Count ``value`` as set for each of ``keys`` whose default it is not."""
        for key in keys:
            if not same_literal(value, self.options[key]):
                self.assigned.add(key)

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
        return cls(modules, consumers)

    def unset_options(self):
        return sorted(set(self.options) - self.assigned)


def test_every_option_is_set_outside_tests():
    uses = OptionUses.from_repo()
    allowlist = {entry for entry in ALLOWLIST if is_option(entry)}
    assert allowlist_problems(uses.unset_options(), uses.options, allowlist) == []


CONFIGS = (
    "from dataclasses import dataclass\n"
    "@dataclass\n"
    "class BaseConfig:\n"
    "    direct: int = 0\n"
    "    forwarded: int = 0\n"
    "    spread: int = 0\n"
    "    default_only: float = 0.5\n"
    "    copied: int = 0\n"
    "    test_only: int = 0\n"
    "@dataclass\n"
    "class GroupConfig(BaseConfig):\n"
    "    sites: int = 1\n"
    "def build(base, **options):\n"
    "    cell = dict(spread=base.size)\n"
    "    return GroupConfig(copied=base.copied, **cell, **options)\n"
)


def test_a_field_only_tests_set_is_flagged():
    uses = OptionUses(
        {"repro.pkg.mod": CONFIGS},
        consumers=[
            "GroupConfig(direct=2, default_only=0.5)\n"
            "build(base, forwarded=3, sites=4)\n"
            "Transport(test_only=1)\n"
        ],
    )
    assert uses.unset_options() == [
        "repro.pkg.mod:BaseConfig.copied=",
        "repro.pkg.mod:BaseConfig.default_only=",
        "repro.pkg.mod:BaseConfig.test_only=",
    ]
    assert allowlist_problems(uses.unset_options(), uses.options, set()) == [
        "only tests use repro.pkg.mod:BaseConfig.copied=",
        "only tests use repro.pkg.mod:BaseConfig.default_only=",
        "only tests use repro.pkg.mod:BaseConfig.test_only=",
    ]


#: One option of each kind: dataclass fields, constructor, method and
#: function keywords, and a function a table names.
OPTION = (
    "from dataclasses import dataclass\n"
    "from typing import ClassVar\n"
    "@dataclass\n"
    "class BaseConfig:\n"
    "    option: int = 0\n"
    "@dataclass\n"
    "class GroupConfig(BaseConfig):\n"
    "    sites: int = 1\n"
    "class Engine:\n"
    "    def __init__(self, option=0):\n"
    "        self.option = option\n"
    "    def retune(self, option=0):\n"
    "        pass\n"
    "    @staticmethod\n"
    "    def pick(choice=0):\n"
    "        pass\n"
    "class Tuned(Engine):\n"
    "    def __init__(self, level):\n"
    "        super().__init__(option=level)\n"
    "    @classmethod\n"
    "    def build(cls, level):\n"
    "        return cls(level)\n"
    "class Layout:\n"
    "    objects: ClassVar[int] = 4\n"
    "def tune(option=0):\n"
    "    pass\n"
    "def size(objects=1):\n"
    "    pass\n"
    "def scenario(seed=1):\n"
    "    pass\n"
    "SCENARIOS = {'only': scenario}\n"
)
FIELD = "BaseConfig.option="
CONSTRUCTOR = "Engine(option=)"
METHOD = "Engine.retune(option=)"
STATIC = "Engine.pick(choice=)"
FUNCTION = "tune(option=)"
SIZED = "size(objects=)"
TABLED = "scenario(seed=)"


def option_is_set(consumer, option):
    uses = OptionUses({"repro.pkg.mod": OPTION}, consumers=[consumer])
    assert f"repro.pkg.mod:{option}" in uses.options
    return f"repro.pkg.mod:{option}" in uses.assigned


@pytest.mark.parametrize(
    "option, consumer",
    [
        (FIELD, "BaseConfig(option=1)\n"),
        (FIELD, "GroupConfig(option=1)\n"),
        (FIELD, "def build(option):\n    return BaseConfig(option=option)\nbuild(option=2)\n"),
        (FIELD, "def build(option):\n    return BaseConfig(option=option)\nbuild(2)\n"),
        (FIELD, "def build(option=3):\n    return BaseConfig(option=option)\n"),
        (FIELD, "def build(**options):\n    return BaseConfig(**options)\nbuild(option=4)\n"),
        (FIELD, "def cell():\n    params = dict(option=5)\n    return GroupConfig(**params)\n"),
        (
            FIELD,
            "def inner(**kw):\n    return BaseConfig(**kw)\n"
            "def outer(**kw):\n    return inner(**kw)\n"
            "outer(option=6)\n",
        ),
        (
            FIELD,
            "def cell(**fields):\n    sizing = dict()\n    sizing.update(fields)\n"
            "    return BaseConfig(**sizing)\ncell(option=7)\n",
        ),
        (FUNCTION, "tune(option=1)\n"),
        (FUNCTION, "def wrap(option=0):\n    return tune(option=option)\nwrap(option=2)\n"),
        (FUNCTION, "import functools\nfunctools.partial(tune, option=5)\n"),
        (
            FUNCTION,
            "def run(**sizing):\n    sizing.setdefault('option', 2)\n    return tune(**sizing)\n",
        ),
        (CONSTRUCTOR, "Engine(1)\n"),
        (CONSTRUCTOR, "Tuned(level=3)\n"),
        (CONSTRUCTOR, "Tuned.build(4)\n"),
        (METHOD, "Engine().retune(5)\n"),
        (STATIC, "Engine.pick(3)\n"),
        (SIZED, "def build(layout):\n    return size(objects=layout.objects)\n"),
        (
            CONSTRUCTOR,
            "BaseConfig(option=1)\n"
            "def build(config):\n    return Engine(option=config.option)\n",
        ),
        (TABLED, "def run(name, seed=2):\n    return SCENARIOS[name](seed=seed)\n"),
        (
            TABLED,
            "def run(name, seed=2):\n    chosen = SCENARIOS[name]\n    return chosen(seed=seed)\n",
        ),
    ],
    ids=[
        "direct",
        "subclass",
        "forwarder_keyword",
        "forwarder_positional",
        "forwarder_default",
        "splat",
        "dict_splat",
        "forwarder_chain",
        "dict_update_splat",
        "function_keyword",
        "forwarder_parameter_set",
        "partial",
        "splat_setdefault",
        "constructor_positional",
        "super_init",
        "classmethod_cls",
        "method_positional_skips_self",
        "staticmethod_positional",
        "class_constant_copy",
        "copy_of_a_set_field",
        "table_call",
        "table_alias",
    ],
)
def test_a_non_default_value_reaching_the_class_sets_the_field(option, consumer):
    assert option_is_set(consumer, option)


@pytest.mark.parametrize(
    "option, consumer",
    [
        (FIELD, "BaseConfig(option=0)\n"),
        (FIELD, "def copy(config):\n    return BaseConfig(option=config.option)\n"),
        (FIELD, "Transport(option=1)\n"),
        (FIELD, "def build(option):\n    return BaseConfig(option=option)\n"),
        (FUNCTION, "tune()\n"),
        (FUNCTION, "def wrap(option=0):\n    return tune(option=option)\nwrap()\n"),
        (FUNCTION, "import functools\nfunctools.partial(tune, option=0)\n"),
        (CONSTRUCTOR, "def build(config):\n    return Engine(option=config.option)\n"),
        (
            CONSTRUCTOR,
            "class Other(Engine):\n"
            "    def __init__(self, level=0):\n"
            "        super().__init__(option=level)\n",
        ),
        (TABLED, "def run(name, seed=1):\n    return SCENARIOS[name](seed=seed)\n"),
    ],
    ids=[
        "default_value",
        "copied_attribute",
        "unrelated_callee",
        "uncalled_forwarder",
        "function_keyword_unpassed",
        "forwarder_parameter_unset",
        "partial_at_the_default",
        "copy_of_an_unset_field",
        "super_init_at_the_default",
        "table_call_at_the_default",
    ],
)
def test_a_default_copy_or_unrelated_keyword_sets_nothing(option, consumer):
    assert not option_is_set(consumer, option)


@pytest.mark.parametrize(
    "consumer, used, missing",
    [
        ("GroupConfig(sites=2)\n", "GroupConfig.sites=", "BaseConfig.gone="),
        ("tune(option=2)\n", FUNCTION, "tune(gone=)"),
    ],
    ids=["field", "function_parameter"],
)
def test_a_stale_field_allowlist_entry_fails(consumer, used, missing):
    uses = OptionUses({"repro.pkg.mod": OPTION}, consumers=[consumer])
    unset = uses.unset_options()
    used, missing = f"repro.pkg.mod:{used}", f"repro.pkg.mod:{missing}"
    assert allowlist_problems(unset, uses.options, set(unset)) == []
    assert allowlist_problems(unset, uses.options, set(unset) | {used, missing}) == [
        f"allowlisted {missing} does not exist",
        f"allowlisted {used} has a user outside tests",
    ]


def option_counts():
    """``(options, unset outside tests, allowlisted)`` over ``src/``."""
    uses = OptionUses.from_repo()
    return (
        len(uses.options),
        len(uses.unset_options()),
        sum(1 for entry in ALLOWLIST if is_option(entry)),
    )


def test_the_printed_counts_agree_with_the_gate():
    options, unset, allowlisted = option_counts()
    # The gate passes exactly when every unset option is allowlisted.
    assert options > unset == allowlisted > 0


if __name__ == "__main__":
    options, unset, allowlisted = option_counts()
    print(f"{options} settable values in src/ (defaulted parameters and dataclass fields)")
    print(f"{unset} unset outside tests, {allowlisted} of them allowlisted")
