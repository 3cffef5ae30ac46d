"""Finding records emitted by lint rules.

A :class:`Finding` is one rule violation at one source location.  Findings
are value objects: hashable and ordered by location.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at ``path:line:column``.

    ``path`` is the path as displayed to the user (relative to the invocation
    directory), ``scope_path`` the path relative to the package root —
    rules match allowlists against the latter so results do not depend on
    where the CLI was invoked from or which directory it was pointed at.
    ``source`` is the offending line, stripped.
    """

    path: str
    line: int
    column: int
    rule: str
    message: str
    hint: str = field(default="", compare=False)
    scope_path: str = field(default="", compare=False)
    source: str = field(default="", compare=False)

    @property
    def location(self) -> str:
        """``path:line:column`` — the clickable anchor used in text output."""
        return f"{self.path}:{self.line}:{self.column}"

    def render(self) -> str:
        """One-line text form: location, rule tag, message, optional hint."""
        text = f"{self.location}: [{self.rule}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text
