"""Rule base class and shared AST helpers."""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional

from ..findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from ..engine import ModuleSource


class Rule:
    """One invariant, checked over one module at a time.

    Subclasses set :attr:`name` (the tag used in findings and in the
    allowed-findings map) and implement :meth:`check`; ``docs/analysis.md``
    catalogues each rule's invariant.
    """

    name: str = ""

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.name}>"


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
