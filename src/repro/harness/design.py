"""Factorial experiment designs: declared factors expanded to run specs.

A sweep-style experiment is a *design*: a set of independent variables
(factors) whose levels are fully crossed, optionally replicated over several
seed indices.  :class:`Design` declares the grid once and
:meth:`Design.expand` turns it into an ordered list of :class:`RunSpec`
objects — one per cell x seed index — that a
:class:`~repro.harness.parallel.SweepExecutor` can fan out across processes.

Two properties make the expansion safe to parallelise:

* **Deterministic order.** Factors cross in declaration order (first factor
  outermost, seed index innermost), so the spec list — and therefore the
  merged result table — is identical no matter how the runs are scheduled.
* **Deterministic seeds.** Each spec's ``seed`` is derived by SHA-256 over
  ``(design name, factor values, seed index)`` — the same
  ``PYTHONHASHSEED``-proof content-hash scheme
  :meth:`repro.simulation.randomness.RandomSource.fork` uses — so a run's
  randomness depends only on *which cell it is*, never on which process or
  invocation executes it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Sequence

__all__ = ["Design", "RunSpec", "derive_run_seed"]


def derive_run_seed(design: str, factors: Mapping[str, object], seed_index: int) -> int:
    """Derive one run's master seed from its design name, cell and replicate.

    SHA-256 over the canonical JSON of the factor values (sorted keys,
    ``repr`` fallback), never the builtin ``hash`` — string hashing is
    randomised per process (``PYTHONHASHSEED``), so a builtin hash would
    give every invocation different seeds and silently break cross-run
    reproducibility (the same trap ``RandomSource.fork`` fixed).
    """
    canonical = json.dumps(
        {str(key): value for key, value in factors.items()},
        sort_keys=True,
        default=repr,
    )
    payload = f"{design}/{canonical}/{seed_index}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass(frozen=True)
class RunSpec:
    """One fully-bound run of a design: a cell of the factor grid.

    Instances are plain data (picklable) so they cross process boundaries;
    the run *function* travels separately as a dotted import path.
    """

    #: Name of the owning design.
    design: str
    #: Position in the expanded order; the merge key for parallel sweeps.
    index: int
    #: This cell's factor assignment, in factor declaration order.
    factors: Dict[str, object]
    #: Constant parameters shared by every cell of the design.
    base: Dict[str, object]
    #: Which replicate of the cell this run is.
    seed_index: int
    #: Master seed derived via :func:`derive_run_seed`.
    seed: int

    def params(self) -> Dict[str, object]:
        """Base parameters overlaid with this cell's factor values."""
        merged = dict(self.base)
        merged.update(self.factors)
        return merged

    def label(self) -> str:
        """Compact human-readable identity (used in failure reports)."""
        assignment = ", ".join(f"{key}={value!r}" for key, value in self.factors.items())
        return f"{self.design}[{self.index}] ({assignment}; seed_index={self.seed_index})"


@dataclass
class Design:
    """A factorial experiment design: crossed factors plus replication.

    ``factors`` maps factor names to their level sequences; levels cross in
    declaration order (first factor varies slowest).  ``seeds`` lists the
    replicate indices — each (cell, seed index) pair becomes one
    :class:`RunSpec` whose master seed is content-derived, so replicates are
    independent but reproducible.  ``base`` carries constant parameters every
    cell shares (they do not enter the seed derivation: a sizing tweak must
    not reshuffle the randomness of an otherwise-identical grid).

    Example::

        design = Design(
            name="batching_ablation",
            factors={"window_ms": [None, 2.0], "rate_ms": [1.0, 0.25]},
            seeds=range(3),
        )
        specs = design.expand()   # 2 x 2 x 3 ordered RunSpecs
    """

    name: str
    factors: Mapping[str, Sequence[object]]
    seeds: Sequence[int] = (0,)
    base: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a design needs a non-empty name")
        if not self.factors:
            raise ValueError(f"design {self.name!r} declares no factors")
        for factor, levels in self.factors.items():
            materialised = list(levels)
            if not materialised:
                raise ValueError(
                    f"design {self.name!r}: factor {factor!r} has no levels"
                )
            seen = set()
            for level in materialised:
                key = repr(level)
                if key in seen:
                    raise ValueError(
                        f"design {self.name!r}: factor {factor!r} repeats level "
                        f"{level!r}; duplicate cells would silently run twice"
                    )
                seen.add(key)
            if factor in self.base:
                raise ValueError(
                    f"design {self.name!r}: {factor!r} is both a factor and a "
                    "base parameter"
                )
        if not list(self.seeds):
            raise ValueError(f"design {self.name!r}: seeds must be non-empty")

    def cells(self) -> Iterator[Dict[str, object]]:
        """Iterate the factor grid in declaration order (no replication)."""
        names = list(self.factors.keys())
        level_lists = [list(self.factors[name]) for name in names]
        for combination in itertools.product(*level_lists):
            yield dict(zip(names, combination))

    def expand(self) -> List[RunSpec]:
        """The ordered run list: every cell, every seed index, stable order."""
        specs: List[RunSpec] = []
        base = dict(self.base)
        for cell in self.cells():
            for seed_index in self.seeds:
                specs.append(
                    RunSpec(
                        design=self.name,
                        index=len(specs),
                        factors=dict(cell),
                        base=dict(base),
                        seed_index=int(seed_index),
                        seed=derive_run_seed(self.name, cell, int(seed_index)),
                    )
                )
        return specs
