"""no-unordered-iteration: set iteration order must never reach the protocol.

In ``simulation/``, ``broadcast/``, ``core/`` and ``workloads/`` the order
in which events are scheduled, positions assigned and keys processed IS the
protocol: two runs that iterate a set in different orders produce different
histories.
Python set iteration order depends on element hashes (and, for strings, on
``PYTHONHASHSEED``), so any ordering-sensitive consumption of a set —
``for`` loops, ``list()``/``tuple()``, list comprehensions, ``join`` —
must go through ``sorted(...)`` first.  Order-insensitive consumption
(membership, ``len``/``min``/``max``/``sum``/``any``/``all``, set algebra,
building another set) is fine, as is iterating a ``dict``: dicts are an
order-documented container (insertion order, preserved by the language), and
insertions are deterministic under the single-threaded kernel.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..findings import Finding
from .base import Rule

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import ModuleSource

DEFAULT_SCOPED_PACKAGES: Tuple[str, ...] = (
    "simulation/",
    "broadcast/",
    "core/",
    "workloads/",
)

_HINT = (
    "iterate sorted(...) — or keep the data in an order-documented container "
    "(dict preserves insertion order)"
)

_SET_ANNOTATION_NAMES = {"Set", "set", "FrozenSet", "frozenset", "MutableSet", "AbstractSet"}
_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference", "copy"}
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _annotation_is_set(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        return _annotation_is_set(node.value)
    if isinstance(node, ast.Name):
        return node.id in _SET_ANNOTATION_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATION_NAMES
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotations: cheap textual check is enough here.
        head = node.value.split("[", 1)[0].strip().rsplit(".", 1)[-1]
        return head in _SET_ANNOTATION_NAMES
    return False


class _SetSymbols:
    """Set-typed names visible to one function body."""

    def __init__(self, local_names: Set[str], self_attrs: Set[str]) -> None:
        self.local_names = local_names
        self.self_attrs = self_attrs

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.local_names
        if isinstance(node, ast.Attribute):
            return (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.self_attrs
            )
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in {"set", "frozenset"}:
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
                and self.is_set_expr(node.func.value)
            ):
                return True
        return False


def _class_set_attrs(class_node: ast.ClassDef) -> Set[str]:
    """Attribute names assigned/annotated as sets anywhere in the class."""
    attrs: Set[str] = set()
    probe = _SetSymbols(set(), attrs)
    for node in ast.walk(class_node):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Attribute):
            target = node.target
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and _annotation_is_set(node.annotation)
            ):
                attrs.add(target.attr)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and probe.is_set_expr(node.value)
                ):
                    attrs.add(target.attr)
    return attrs


class NoUnorderedIterationRule(Rule):
    name = "no-unordered-iteration"

    def __init__(self, scoped_packages: Sequence[str] = DEFAULT_SCOPED_PACKAGES) -> None:
        self.scoped_packages = tuple(scoped_packages)

    # ------------------------------------------------------------- inference
    def _function_symbols(
        self, function: ast.AST, self_attrs: Set[str]
    ) -> _SetSymbols:
        local: Set[str] = set()
        symbols = _SetSymbols(local, self_attrs)
        args = getattr(function, "args", None)
        if args is not None:
            all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            for arg in all_args:
                if _annotation_is_set(arg.annotation):
                    local.add(arg.arg)
        for node in ast.walk(function):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if _annotation_is_set(node.annotation):
                    local.add(node.target.id)
            elif isinstance(node, ast.Assign) and symbols.is_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local.add(target.id)
        return symbols

    # -------------------------------------------------------------- checking
    def _consumption_findings(
        self, module: "ModuleSource", body: ast.AST, symbols: _SetSymbols
    ) -> Iterator[Finding]:
        for node in ast.walk(body):
            if isinstance(node, (ast.For, ast.AsyncFor)) and symbols.is_set_expr(node.iter):
                yield module.finding(
                    node.iter,
                    self.name,
                    "for-loop over a set — iteration order is hash-dependent",
                    hint=_HINT,
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for generator in node.generators:
                    if symbols.is_set_expr(generator.iter):
                        yield module.finding(
                            generator.iter,
                            self.name,
                            "comprehension builds an ordered result from a set",
                            hint=_HINT,
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in {"list", "tuple", "enumerate", "iter", "next", "reversed"}
                    and node.args
                    and symbols.is_set_expr(node.args[0])
                ):
                    yield module.finding(
                        node,
                        self.name,
                        f"`{func.id}(...)` materialises a set in hash order",
                        hint=_HINT,
                    )
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "join"
                    and node.args
                    and symbols.is_set_expr(node.args[0])
                ):
                    yield module.finding(
                        node,
                        self.name,
                        "`join` over a set concatenates in hash order",
                        hint=_HINT,
                    )

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        if not module.in_scope(self.scoped_packages):
            return
        # Module level: no `self`, locals inferred over the whole module body.
        module_symbols = self._function_symbols(module.tree, set())
        seen_functions: List[ast.AST] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                self_attrs = _class_set_attrs(node)
                for child in ast.walk(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        seen_functions.append(child)
                        symbols = self._function_symbols(child, self_attrs)
                        yield from self._consumption_findings(module, child, symbols)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node not in seen_functions:
                    seen_functions.append(node)
                    symbols = self._function_symbols(node, set())
                    yield from self._consumption_findings(module, node, symbols)
        # Statements outside any function (rare, but cheap to cover).
        for statement in module.tree.body:
            if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from self._consumption_findings(module, statement, module_symbols)
