"""Determinism & isolation static-analysis suite.

Every claim this reproduction makes — same-seed chaos reproducibility,
batching-oblivious crash semantics, trace-signature equality, suspicion-only
failover — rests on invariants.  Most of them a run checks by itself: an
unseeded draw, a wall-clock read or an unguarded tracer call fails tier-1
(the planted defects of ``tools/mutants.py`` show it).  Three it does not:
iteration over a ``set`` that the hash seed happens to order the same way,
allocation in the kernel's hot loops, and a site reading a peer's volatile
state except through the transport or the declared recovery donor path.

This package machine-checks those three.  It is a small, dependency-free AST
lint engine (:mod:`.engine`) with one rule each (:mod:`.rules`).  The CLI
lives in ``tools/lint.py``::

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
