"""The AST lint engine: file loading, rule dispatch, suppression, reporting.

The engine is deliberately small: a :class:`ModuleSource` bundles one parsed
file, every :class:`~repro.analysis.rules.base.Rule` yields
:class:`~repro.analysis.findings.Finding` objects over it, and the engine
applies suppression pragmas and the optional baseline before assembling a
:class:`LintReport`.  Rules never see each other and never mutate the tree,
so a rule pack is just a list.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from .findings import Finding
from .suppressions import apply_suppressions, parse_suppressions
from .rules.base import Rule


@dataclass
class ModuleSource:
    """One parsed source file handed to every rule.

    ``display_path`` is what findings show to the user (invocation-relative);
    ``scope_path`` is the posix path relative to the linted tree root and is
    what rule allowlists match against.
    """

    display_path: str
    scope_path: str
    text: str
    tree: ast.Module

    def in_scope(self, prefixes: Sequence[str]) -> bool:
        """Whether this module falls under any of the path ``prefixes``."""
        return any(
            self.scope_path == prefix or self.scope_path.startswith(prefix)
            for prefix in prefixes
        )

    def finding(
        self,
        node: ast.AST,
        rule: str,
        message: str,
        hint: str = "",
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
            hint=hint,
            scope_path=self.scope_path,
        )


@dataclass
class LintReport:
    """The result of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    files_scanned: int = 0
    baselined: int = 0

    @property
    def exit_code(self) -> int:
        """CLI contract: 0 clean, 1 findings present, 2 engine error."""
        if self.errors:
            return 2
        return 1 if self.findings else 0

    def counts_by_rule(self) -> dict:
        """``{rule: count}`` over the kept findings, sorted by rule name."""
        counts: dict = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


class LintEngine:
    """Run a rule pack over files or source trees."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        names = [rule.name for rule in rules]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValueError(f"duplicate rule names: {sorted(duplicates)}")
        self.rules: Tuple[Rule, ...] = tuple(rules)

    @property
    def rule_names(self) -> List[str]:
        return [rule.name for rule in self.rules]

    # ---------------------------------------------------------------- loading
    def _load(
        self, text: str, display_path: str, scope_path: str
    ) -> Tuple[Optional[ModuleSource], Optional[str]]:
        try:
            tree = ast.parse(text, filename=display_path)
        except SyntaxError as error:
            return None, f"{display_path}: syntax error: {error.msg} (line {error.lineno})"
        return (
            ModuleSource(
                display_path=display_path,
                scope_path=scope_path,
                text=text,
                tree=tree,
            ),
            None,
        )

    # ---------------------------------------------------------------- linting
    def lint_module(self, module: ModuleSource) -> Tuple[List[Finding], List[Finding]]:
        """Lint one module: returns ``(kept, suppressed)`` findings.

        Rule findings are filtered through the module's pragmas; pragma
        defects (``bad-suppression``/``unused-suppression``) are appended to
        the kept list and are never themselves suppressible.
        """
        raw: List[Finding] = []
        for rule in self.rules:
            raw.extend(rule.check(module))
        # Rules may visit nested scopes more than once; findings are value
        # objects, so exact duplicates collapse here.
        raw = list(dict.fromkeys(raw))
        suppressions, pragma_findings = parse_suppressions(
            module.text,
            path=module.display_path,
            scope_path=module.scope_path,
            known_rules=self.rule_names,
        )
        kept, suppressed, unused = apply_suppressions(raw, suppressions)
        kept.extend(pragma_findings)
        kept.extend(unused)
        kept.sort()
        suppressed.sort()
        return kept, suppressed

    def lint_source(
        self, text: str, *, path: str = "<memory>", scope_path: Optional[str] = None
    ) -> List[Finding]:
        """Lint an in-memory source string (tests and fixtures)."""
        module, error = self._load(text, path, scope_path if scope_path is not None else path)
        if module is None:
            raise SyntaxError(error)
        kept, _ = self.lint_module(module)
        return kept

    def lint_paths(
        self,
        paths: Iterable[Path],
        *,
        display_base: Optional[Path] = None,
    ) -> LintReport:
        """Lint files and/or directory trees.

        For a directory argument, its ``*.py`` files (recursively, sorted for
        deterministic output) are linted with scope paths relative to that
        directory.  For a file argument the scope root is its parent.
        """
        report = LintReport()
        base = display_base if display_base is not None else Path.cwd()
        for path in paths:
            path = Path(path)
            if path.is_dir():
                files = sorted(path.rglob("*.py"))
                root = path
            elif path.is_file():
                files = [path]
                root = path.parent
            else:
                report.errors.append(f"{path}: no such file or directory")
                continue
            for file_path in files:
                try:
                    text = file_path.read_text(encoding="utf-8")
                except OSError as error:
                    report.errors.append(f"{file_path}: {error}")
                    continue
                try:
                    display = str(file_path.resolve().relative_to(base.resolve()))
                except ValueError:
                    display = str(file_path)
                scope = file_path.resolve().relative_to(root.resolve()).as_posix()
                module, load_error = self._load(text, display, scope)
                if module is None:
                    report.errors.append(load_error or f"{display}: unparsable")
                    continue
                kept, suppressed = self.lint_module(module)
                report.findings.extend(kept)
                report.suppressed.extend(suppressed)
                report.files_scanned += 1
        report.findings.sort()
        report.suppressed.sort()
        return report
