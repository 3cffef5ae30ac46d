"""kernel-hot-path-allocation: the marked dispatch loop stays allocation-lean.

PR 4 bought a ~1.4x dispatch-floor speedup by keeping the kernel's event
loop free of per-event allocation; one innocent f-string or comprehension
inside it gives that back.  The loop is *marked* in source with a comment
containing ``repro: hot-path`` — the rule attaches to the next ``for``/
``while`` statement after the marker and flags allocation-heavy constructs
inside it: comprehensions and generator expressions, ``dict``/``list``/
``set``/``tuple`` calls, displays with elements, f-strings, ``%``-formatting
of string literals and ``.format(...)``.

The marker is part of the contract: new hot loops should be marked when
they are tightened, so the optimisation cannot silently rot.
"""

from __future__ import annotations

import ast
import io
import tokenize
from typing import TYPE_CHECKING, Iterator, List

from ..findings import Finding
from .base import Rule

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import ModuleSource

MARKER = "repro: hot-path"

_HINT = (
    "hoist the allocation out of the marked loop (bind before the loop, "
    "reuse buffers, use static labels) — measure with python -m bench "
    "(bench/README.md)"
)


def _marker_lines(text: str) -> List[int]:
    lines: List[int] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT and MARKER in token.string:
                lines.append(token.start[0])
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return lines


class KernelHotPathAllocationRule(Rule):
    name = "kernel-hot-path-allocation"
    description = (
        "loops marked `# repro: hot-path` may not allocate per iteration "
        "(comprehensions, dict()/list(), f-strings, .format)"
    )

    def _loop_after(self, tree: ast.Module, marker_line: int) -> ast.AST:
        best = None
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                if node.lineno >= marker_line:
                    if best is None or node.lineno < best.lineno:
                        best = node
        return best

    def _allocation_findings(
        self, module: "ModuleSource", loop: ast.AST
    ) -> Iterator[Finding]:
        for node in ast.walk(loop):
            if node is loop:
                continue
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                kind = type(node).__name__
                yield module.finding(
                    node,
                    self.name,
                    f"{kind} allocates inside the marked hot-path loop",
                    hint=_HINT,
                )
            elif isinstance(node, ast.JoinedStr):
                yield module.finding(
                    node,
                    self.name,
                    "f-string formats (and allocates) inside the marked "
                    "hot-path loop",
                    hint=_HINT,
                )
            elif isinstance(node, (ast.Dict, ast.List, ast.Set)) and getattr(
                node, "keys", getattr(node, "elts", None)
            ):
                kind = type(node).__name__.lower()
                yield module.finding(
                    node,
                    self.name,
                    f"non-empty {kind} display allocates inside the marked "
                    "hot-path loop",
                    hint=_HINT,
                )
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id in {
                    "dict",
                    "list",
                    "set",
                    "tuple",
                    "frozenset",
                }:
                    yield module.finding(
                        node,
                        self.name,
                        f"`{func.id}(...)` allocates inside the marked "
                        "hot-path loop",
                        hint=_HINT,
                    )
                elif isinstance(func, ast.Attribute) and func.attr == "format":
                    yield module.finding(
                        node,
                        self.name,
                        "`.format(...)` formats inside the marked hot-path loop",
                        hint=_HINT,
                    )
            elif (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Mod)
                and isinstance(node.left, (ast.Constant, ast.JoinedStr))
                and (
                    isinstance(node.left, ast.JoinedStr)
                    or isinstance(node.left.value, str)
                )
            ):
                yield module.finding(
                    node,
                    self.name,
                    "%-formatting of a string literal inside the marked "
                    "hot-path loop",
                    hint=_HINT,
                )

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        for marker_line in _marker_lines(module.text):
            loop = self._loop_after(module.tree, marker_line)
            if loop is None:
                yield Finding(
                    path=module.display_path,
                    line=marker_line,
                    column=1,
                    rule=self.name,
                    message="`repro: hot-path` marker with no loop after it",
                    hint="place the marker immediately above the for/while "
                    "statement it protects",
                    scope_path=module.scope_path,
                )
                continue
            yield from self._allocation_findings(module, loop)
