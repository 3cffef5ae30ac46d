"""The invariant rule pack.

:func:`default_rules` builds the pack the CLI runs; each rule's module
docstring explains the invariant it protects and ``docs/analysis.md`` names
the planted defect (``tools/mutants.py``) that only the rule catches.
"""

from typing import List

from .base import Rule
from .iteration import NoUnorderedIterationRule
from .oracle import NoCrossSiteOracleRule
from .hotpath import KernelHotPathAllocationRule

__all__ = [
    "Rule",
    "NoUnorderedIterationRule",
    "NoCrossSiteOracleRule",
    "KernelHotPathAllocationRule",
    "default_rules",
]


def default_rules() -> List[Rule]:
    """The full invariant pack with the codebase's declared allowlists."""
    return [
        NoUnorderedIterationRule(),
        NoCrossSiteOracleRule(),
        KernelHotPathAllocationRule(),
    ]
