"""Determinism & isolation lint CLI.

Usage::

    python -m tools.lint [paths ...] [--format text|json] [--baseline FILE]
                         [--write-baseline FILE] [--report-only] [--list-rules]

Exit-code contract (stable; CI and the driver rely on it):

* ``0`` — no findings (or ``--report-only``/``--write-baseline`` ran).
* ``1`` — findings present.
* ``2`` — engine/usage error (unparsable file, missing path, bad baseline).

``--report-only`` prints findings but always exits 0 — used over
``tests/`` to make determinism debt visible without gating.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis import LintEngine, LintReport, default_rules
from repro.analysis.baseline import filter_baselined, load_baseline, write_baseline

JSON_SCHEMA_VERSION = 1


def render_text(report: LintReport) -> str:
    lines: List[str] = []
    for error in report.errors:
        lines.append(f"error: {error}")
    for finding in report.findings:
        lines.append(finding.render())
    counts = report.counts_by_rule()
    summary = (
        f"{len(report.findings)} finding(s) in {report.files_scanned} file(s)"
        f" ({len(report.suppressed)} suppressed"
        + (f", {report.baselined} baselined" if report.baselined else "")
        + ")"
    )
    if counts:
        summary += ": " + ", ".join(f"{rule}={count}" for rule, count in counts.items())
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport, rule_names: List[str]) -> str:
    body = {
        "version": JSON_SCHEMA_VERSION,
        "rules": rule_names,
        "files_scanned": report.files_scanned,
        "findings": [finding.to_dict() for finding in report.findings],
        "suppressed": len(report.suppressed),
        "baselined": report.baselined,
        "counts_by_rule": report.counts_by_rule(),
        "errors": list(report.errors),
        "exit_code": report.exit_code,
    }
    return json.dumps(body, indent=2, sort_keys=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.lint",
        description="AST lint for the repo's determinism & isolation invariants.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument("--baseline", help="baseline JSON to filter known findings")
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write the current findings as a baseline and exit 0",
    )
    parser.add_argument(
        "--report-only",
        action="store_true",
        help="always exit 0 (non-gating debt report)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list the rule pack and exit"
    )
    options = parser.parse_args(argv)

    rules = default_rules()
    if options.list_rules:
        for rule in rules:
            print(f"{rule.name}: {rule.description}")
        return 0

    engine = LintEngine(rules)
    report = engine.lint_paths([Path(p) for p in options.paths])

    if options.baseline:
        try:
            baseline = load_baseline(options.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as error:
            print(f"error: cannot load baseline: {error}", file=sys.stderr)
            return 2
        report.findings, report.baselined = filter_baselined(
            report.findings, baseline
        )

    if options.write_baseline:
        count = write_baseline(report.findings, options.write_baseline)
        print(f"baseline: recorded {count} finding(s) -> {options.write_baseline}")
        return 0

    if options.format == "json":
        print(render_json(report, engine.rule_names))
    else:
        print(render_text(report))

    if report.errors:
        return 2
    if options.report_only:
        return 0
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
