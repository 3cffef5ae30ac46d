"""Inline suppression pragmas.

A finding is silenced in place with::

    some_offending_code()  # repro: allow[rule-name] -- why this is safe here

The pragma names the rule(s) it silences (comma-separated inside the
brackets) and **must** carry a reason after ``--``; a pragma without a
written reason is itself a finding (``bad-suppression``), as is a pragma
naming a rule the engine does not know, and a pragma that silenced nothing
(``unused-suppression``).  Those meta findings cannot themselves be
suppressed — the escape hatch is linted so it cannot rust open.

A pragma on a line of code applies to that line.  A pragma on a line of its
own applies to the next line that holds code, so long statements can keep
their suppression visible above them.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from .findings import Finding

#: Rules emitted by the suppression machinery itself (never suppressible).
META_RULES = ("bad-suppression", "unused-suppression")

_PRAGMA_PATTERN = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[^\]]*)\]\s*(?:--(?P<reason>.*))?$"
)


@dataclass
class Suppression:
    """One parsed ``# repro: allow[...]`` pragma."""

    path: str
    line: int
    applies_to: int
    rules: Tuple[str, ...]
    reason: str
    scope_path: str = ""
    used: bool = field(default=False, compare=False)


def _code_lines(tokens: Iterable[tokenize.TokenInfo]) -> Set[int]:
    """Line numbers that carry actual code (not comments/blank/NL)."""
    skip = {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENDMARKER,
        tokenize.ENCODING,
    }
    lines: Set[int] = set()
    for token in tokens:
        if token.type in skip:
            continue
        for lineno in range(token.start[0], token.end[0] + 1):
            lines.add(lineno)
    return lines


def parse_suppressions(
    source: str,
    *,
    path: str,
    scope_path: str,
    known_rules: Iterable[str],
) -> Tuple[List[Suppression], List[Finding]]:
    """Extract pragmas from ``source``.

    Returns the parsed suppressions plus any ``bad-suppression`` findings
    (missing reason, empty or unknown rule list).  Tokenisation errors are
    ignored here — the engine reports unparsable files separately.
    """
    known = set(known_rules)
    suppressions: List[Suppression] = []
    findings: List[Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return [], []
    code_lines = _code_lines(tokens)
    max_line = max(code_lines) if code_lines else 0

    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_PATTERN.search(token.string)
        if match is None:
            # A comment that mentions the pragma namespace but fails to parse
            # is a typo waiting to silently not-suppress; flag it.
            if re.search(r"#\s*repro:\s*allow\b", token.string):
                findings.append(
                    Finding(
                        path=path,
                        line=token.start[0],
                        column=token.start[1] + 1,
                        rule="bad-suppression",
                        message="malformed suppression pragma "
                        "(expected `# repro: allow[rule] -- reason`)",
                        hint="write `# repro: allow[<rule>] -- <reason>`",
                        scope_path=scope_path,
                    )
                )
            continue
        line = token.start[0]
        column = token.start[1] + 1
        rules = tuple(
            name.strip() for name in match.group("rules").split(",") if name.strip()
        )
        reason = (match.group("reason") or "").strip()
        problems: List[str] = []
        if not rules:
            problems.append("names no rule")
        unknown = [name for name in rules if name not in known]
        if unknown:
            problems.append("names unknown rule(s) " + ", ".join(repr(u) for u in unknown))
        meta = [name for name in rules if name in META_RULES]
        if meta:
            problems.append(
                "tries to suppress the suppression linter ("
                + ", ".join(meta)
                + ")"
            )
        if not reason:
            problems.append("carries no reason after `--`")
        if problems:
            findings.append(
                Finding(
                    path=path,
                    line=line,
                    column=column,
                    rule="bad-suppression",
                    message="suppression pragma " + "; ".join(problems),
                    hint="every pragma must read "
                    "`# repro: allow[<known-rule>] -- <written reason>`",
                    scope_path=scope_path,
                )
            )
            continue
        if line in code_lines:
            applies_to = line
        else:
            # Standalone pragma: applies to the next line holding code.
            applies_to = line + 1
            while applies_to <= max_line and applies_to not in code_lines:
                applies_to += 1
        suppressions.append(
            Suppression(
                path=path,
                line=line,
                applies_to=applies_to,
                rules=rules,
                reason=reason,
                scope_path=scope_path,
            )
        )
    return suppressions, findings


def apply_suppressions(
    findings: List[Finding], suppressions: List[Suppression]
) -> Tuple[List[Finding], List[Finding], List[Finding]]:
    """Split ``findings`` into (kept, suppressed) and report unused pragmas.

    Returns ``(kept, suppressed, unused_findings)`` where ``unused_findings``
    are ``unused-suppression`` findings for pragmas that silenced nothing.
    """
    by_key: Dict[Tuple[int, str], List[Suppression]] = {}
    for suppression in suppressions:
        for rule in suppression.rules:
            by_key.setdefault((suppression.applies_to, rule), []).append(suppression)

    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in findings:
        matching = by_key.get((finding.line, finding.rule))
        if matching:
            for suppression in matching:
                suppression.used = True
            suppressed.append(finding)
        else:
            kept.append(finding)

    unused: List[Finding] = []
    for suppression in suppressions:
        if not suppression.used:
            unused.append(
                Finding(
                    path=suppression.path,
                    line=suppression.line,
                    column=1,
                    rule="unused-suppression",
                    message="suppression pragma for "
                    + ", ".join(repr(r) for r in suppression.rules)
                    + " matches no finding",
                    hint="delete the pragma (or move it onto the offending line)",
                    scope_path=suppression.scope_path,
                )
            )
    return kept, suppressed, unused
