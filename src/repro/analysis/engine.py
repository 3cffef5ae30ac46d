"""The AST lint engine: file loading, rule dispatch, reporting.

The engine is deliberately small: a :class:`ModuleSource` bundles one parsed
file, every :class:`~repro.analysis.rules.base.Rule` yields
:class:`~repro.analysis.findings.Finding` objects over it, and the engine
collects them into a :class:`LintReport`.  Rules never see each other and
never mutate the tree, so a rule pack is just a list.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from .findings import Finding
from .rules.base import Rule


@dataclass
class ModuleSource:
    """One parsed source file handed to every rule.

    ``display_path`` is what findings show to the user (invocation-relative);
    ``scope_path`` is the posix path relative to the package root (see
    :func:`package_root`) and is what rule allowlists match against.
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
        line = getattr(node, "lineno", 1)
        lines = self.text.splitlines()
        return Finding(
            path=self.display_path,
            line=line,
            column=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
            hint=hint,
            scope_path=self.scope_path,
            source=lines[line - 1].strip() if line <= len(lines) else "",
        )


@dataclass
class LintReport:
    """The result of one engine run."""

    findings: List[Finding] = field(default_factory=list, init=False)
    errors: List[str] = field(default_factory=list, init=False)
    files_scanned: int = field(default=0, init=False)


def package_root(file_path: Path) -> Optional[Path]:
    """The topmost directory of the package chain holding ``file_path``.

    Walks up from the file's directory while each directory holds an
    ``__init__.py``; ``None`` when the file is not in a package.  Scope
    paths are taken relative to this root, so ``core/cluster.py`` is the
    same scope whether the lint was pointed at ``src/repro``, at
    ``src/repro/core`` or at the file itself.
    """
    root = None
    directory = file_path.resolve().parent
    while (directory / "__init__.py").is_file():
        root, directory = directory, directory.parent
    return root


class LintEngine:
    """Run a rule pack over files or source trees."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        names = [rule.name for rule in rules]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValueError(f"duplicate rule names: {sorted(duplicates)}")
        self.rules: Tuple[Rule, ...] = tuple(rules)

    def lint_module(self, module: ModuleSource) -> List[Finding]:
        """Every rule's findings over one module, sorted."""
        findings: List[Finding] = []
        for rule in self.rules:
            findings.extend(rule.check(module))
        # Rules may visit nested scopes more than once; findings are value
        # objects, so exact duplicates collapse here.
        return sorted(set(findings))

    def lint_source(
        self, text: str, *, path: str = "<memory>", scope_path: Optional[str] = None
    ) -> List[Finding]:
        """Lint an in-memory source string (tests and fixtures)."""
        tree = ast.parse(text, filename=path)
        scope = scope_path if scope_path is not None else path
        return self.lint_module(ModuleSource(path, scope, text, tree))

    def lint_paths(
        self,
        paths: Iterable[Path],
        *,
        display_base: Optional[Path] = None,
    ) -> LintReport:
        """Lint files and/or directory trees.

        A directory argument contributes its ``*.py`` files, recursively and
        sorted for deterministic output.  Each file's scope path is relative
        to its :func:`package_root`; a file outside any package is scoped
        relative to the directory argument (or, for a file argument, its
        parent).
        """
        report = LintReport()
        base = (display_base if display_base is not None else Path.cwd()).resolve()
        for path in paths:
            path = Path(path)
            if path.is_dir():
                files, fallback = sorted(path.rglob("*.py")), path
            elif path.is_file():
                files, fallback = [path], path.parent
            else:
                report.errors.append(f"{path}: no such file or directory")
                continue
            for file_path in files:
                resolved = file_path.resolve()
                try:
                    display = str(resolved.relative_to(base))
                except ValueError:
                    display = str(file_path)
                try:
                    text = file_path.read_text(encoding="utf-8")
                    tree = ast.parse(text, filename=display)
                except OSError as error:
                    report.errors.append(f"{display}: {error}")
                    continue
                except SyntaxError as error:
                    report.errors.append(
                        f"{display}: syntax error: {error.msg} (line {error.lineno})"
                    )
                    continue
                root = package_root(resolved) or fallback.resolve()
                scope = resolved.relative_to(root).as_posix()
                report.findings.extend(
                    self.lint_module(ModuleSource(display, scope, text, tree))
                )
                report.files_scanned += 1
        report.findings.sort()
        return report
