"""tracer-guard: every tracer call sits behind a `tracer is not None` check.

Tracing is off by default precisely so the kernel hot loop pays nothing for
it; an unguarded ``self.tracer.record(...)`` either crashes the untraced
path (``None.record``) or quietly forces tracing on.  PR 6 asserted this
structurally for one module — this rule generalises it: any call through an
attribute or variable named ``tracer`` must be dominated by a ``is not
None`` (or truthiness) test on the *same* receiver expression, either as an
enclosing ``if``, an early ``return``/``raise``/``continue``/``break`` on
the ``is None`` side, a conditional expression, or an ``and`` short-circuit.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, List, Set, Tuple

from ..findings import Finding
from .base import Rule, dotted_name

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import ModuleSource

#: The module that defines the tracer itself calls through ``self`` freely.
ALLOWED_MODULES: Tuple[str, ...] = ("observability/trace.py",)

_HINT = (
    "wrap the call in `if <receiver> is not None:` (tracing is off by "
    "default; the untraced path must stay allocation- and branch-free)"
)


def _receiver_key(node: ast.AST) -> str:
    """Canonical text of a tracer receiver expression (``self.tracer`` ...)."""
    name = dotted_name(node)
    return name if name is not None else ast.dump(node)


def _is_tracer_receiver(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "tracer" or node.attr.endswith("_tracer")
    if isinstance(node, ast.Name):
        return node.id == "tracer" or node.id.endswith("_tracer")
    return False


def _guard_tests(test: ast.AST) -> Tuple[Set[str], Set[str]]:
    """Receivers proven non-None when ``test`` is true / when it is false."""
    true_side: Set[str] = set()
    false_side: Set[str] = set()
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, op, right = test.left, test.ops[0], test.comparators[0]
        operand = None
        if isinstance(right, ast.Constant) and right.value is None:
            operand = left
        elif isinstance(left, ast.Constant) and left.value is None:
            operand = right
        if operand is not None and _is_tracer_receiver(operand):
            if isinstance(op, ast.IsNot):
                true_side.add(_receiver_key(operand))
            elif isinstance(op, ast.Is):
                false_side.add(_receiver_key(operand))
    elif _is_tracer_receiver(test):
        true_side.add(_receiver_key(test))
    elif isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        for value in test.values:
            t, _ = _guard_tests(value)
            true_side |= t
    elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        t, f = _guard_tests(test.operand)
        true_side |= f
        false_side |= t
    return true_side, false_side


def _terminates(body: List[ast.stmt]) -> bool:
    """Whether the block unconditionally leaves the enclosing suite."""
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


class TracerGuardRule(Rule):
    name = "tracer-guard"

    # ---------------------------------------------------------------- checks
    def _check_expr(
        self, module: "ModuleSource", node: ast.AST, guarded: Set[str]
    ) -> Iterator[Finding]:
        """Find unguarded tracer calls inside one expression."""
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            extra: Set[str] = set()
            for value in node.values:
                yield from self._check_expr(module, value, guarded | extra)
                t, _ = _guard_tests(value)
                extra |= t
            return
        if isinstance(node, ast.IfExp):
            true_side, false_side = _guard_tests(node.test)
            yield from self._check_expr(module, node.test, guarded)
            yield from self._check_expr(module, node.body, guarded | true_side)
            yield from self._check_expr(module, node.orelse, guarded | false_side)
            return
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and _is_tracer_receiver(func.value):
                key = _receiver_key(func.value)
                if key not in guarded:
                    receiver = dotted_name(func.value) or "tracer"
                    yield module.finding(
                        node,
                        self.name,
                        f"`{receiver}.{func.attr}(...)` is not dominated by a "
                        f"`{receiver} is not None` guard",
                        hint=_HINT,
                    )
        for child in ast.iter_child_nodes(node):
            yield from self._check_expr(module, child, guarded)

    def _check_block(
        self, module: "ModuleSource", body: List[ast.stmt], guarded: Set[str]
    ) -> Iterator[Finding]:
        guarded = set(guarded)
        for statement in body:
            if isinstance(statement, ast.If):
                true_side, false_side = _guard_tests(statement.test)
                yield from self._check_expr(module, statement.test, guarded)
                yield from self._check_block(module, statement.body, guarded | true_side)
                yield from self._check_block(module, statement.orelse, guarded | false_side)
                # `if tracer is None: return` proves the rest of this suite.
                if _terminates(statement.body):
                    guarded |= false_side
                if statement.orelse and _terminates(statement.orelse):
                    guarded |= true_side
                continue
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Nested scope: guards do not carry across call boundaries.
                yield from self._check_block(module, statement.body, set())
                continue
            if isinstance(statement, ast.ClassDef):
                yield from self._check_block(module, statement.body, set())
                continue
            if isinstance(statement, (ast.For, ast.AsyncFor, ast.While)):
                yield from self._check_expr(
                    module, getattr(statement, "iter", getattr(statement, "test", statement)), guarded
                )
                yield from self._check_block(module, statement.body, guarded)
                yield from self._check_block(module, statement.orelse, guarded)
                continue
            if isinstance(statement, (ast.With, ast.AsyncWith)):
                for item in statement.items:
                    yield from self._check_expr(module, item.context_expr, guarded)
                yield from self._check_block(module, statement.body, guarded)
                continue
            if isinstance(statement, ast.Try):
                yield from self._check_block(module, statement.body, guarded)
                for handler in statement.handlers:
                    yield from self._check_block(module, handler.body, guarded)
                yield from self._check_block(module, statement.orelse, guarded)
                yield from self._check_block(module, statement.finalbody, guarded)
                continue
            yield from self._check_expr(module, statement, guarded)

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        if module.in_scope(ALLOWED_MODULES):
            return
        yield from self._check_block(module, module.tree.body, set())
