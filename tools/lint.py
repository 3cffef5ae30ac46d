"""Determinism & isolation lint CLI.

Usage::

    python -m tools.lint [paths ...]        # default: src/repro

Prints one line per finding outside :data:`ALLOWED_FINDINGS`, then a
summary.  Exit codes: ``0`` no such finding, ``1`` findings, ``2`` a missing
path or an unreadable or unparsable file.  ``docs/analysis.md`` is the rule
catalogue.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional, Tuple

from repro.analysis import Finding, LintEngine, default_rules

#: Findings over ``src/repro`` that are allowed: (scope path, rule, the
#: offending line's stripped text) -> why.  The tier-1 suite fails on a
#: finding outside this map and on an entry that matches no finding.
ALLOWED_FINDINGS = {
    (
        "broadcast/optimistic.py",
        "no-cross-site-oracle",
        "expected_sites = [site for site in members if self.transport.is_site_up(site)]",
    ): (
        "_maybe_release: voting mode waits for the announcements of the sites "
        "that are up, read from ground truth; the SuspicionSource that "
        "replaces it is ROADMAP item 17"
    ),
    (
        "broadcast/optimistic.py",
        "no-cross-site-oracle",
        "if not self.transport.is_site_up(self.site_id):",
    ): (
        "_gap_probe: a site asking whether it is itself up reads no other "
        "site's state"
    ),
}


def allowance(finding: Finding) -> Tuple[str, str, str]:
    """The :data:`ALLOWED_FINDINGS` key of ``finding``."""
    return finding.scope_path, finding.rule, finding.source


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
    options = parser.parse_args(argv)

    report = LintEngine(default_rules()).lint_paths([Path(p) for p in options.paths])
    findings = [f for f in report.findings if allowance(f) not in ALLOWED_FINDINGS]
    for error in report.errors:
        print(f"error: {error}")
    for finding in findings:
        print(finding.render())
    summary = (
        f"{len(findings)} finding(s) in {report.files_scanned} file(s)"
        f" ({len(report.findings) - len(findings)} allowed)"
    )
    counts = Counter(finding.rule for finding in findings)
    if counts:
        summary += ": " + ", ".join(f"{rule}={n}" for rule, n in sorted(counts.items()))
    print(summary)
    if report.errors:
        return 2
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
