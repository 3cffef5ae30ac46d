"""Determinism & isolation static-analysis suite.

Every claim this reproduction makes — same-seed chaos reproducibility,
batching-oblivious crash semantics, trace-signature equality, suspicion-only
failover — rests on invariants that used to be enforced only by convention:
randomness flows through :class:`repro.simulation.randomness.RandomStream`,
no wall clock reaches simulation logic, tracer calls stay behind
``tracer is not None`` guards, and a site never reads a peer's volatile
state except through the transport or the declared recovery donor path.

This package machine-checks those conventions.  It is a small, dependency-free
AST lint engine (:mod:`.engine`) with a rule pack (:mod:`.rules`) encoding the
codebase's load-bearing invariants.  The CLI lives in ``tools/lint.py``::

    python -m tools.lint src/repro

A finding that is allowed is named, with its reason, in the one
``ALLOWED_FINDINGS`` map of ``tools/lint.py``; the tier-1 suite fails on a
finding outside it and on an entry that no longer matches one.  See
``docs/analysis.md`` for the rule catalogue.
"""

from .findings import Finding
from .engine import LintEngine, LintReport, ModuleSource
from .rules import default_rules

__all__ = [
    "Finding",
    "LintEngine",
    "LintReport",
    "ModuleSource",
    "default_rules",
]
