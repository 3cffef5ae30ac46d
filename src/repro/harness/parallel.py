"""Parallel sweep executor: fan a design's runs across processes.

Sweeps are embarrassingly parallel — every :class:`~repro.harness.design.RunSpec`
is an independent simulation — so :class:`SweepExecutor` fans them over a
``ProcessPoolExecutor`` and merges the per-run rows back **in spec order**.
Because each run's seed is content-derived from its spec (never from which
worker executes it), the merged table is bit-identical to a serial run of
the same design: ``jobs=1`` executes in-process and is the reference.

Workers receive the run *function* as a dotted import path
(``"package.module:function"``) resolved inside the worker, so specs stay
plain picklable data and no closure has to survive a process boundary.
Per-run failures — an exception inside a cell, or a worker process dying
outright — are captured as :class:`RunFailure` entries carrying the spec
that failed, instead of aborting the rest of the sweep.

Wall-clock timing goes through the declared observability boundary
(:mod:`repro.observability.wallclock`); nothing here reads the machine's
clock directly, so the ``no-wallclock`` lint invariant holds.
"""

from __future__ import annotations

import importlib
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..observability.wallclock import wall_clock
from .design import Design, RunSpec

__all__ = [
    "CellRunner",
    "RunFailure",
    "SweepError",
    "SweepExecutor",
    "SweepReport",
    "execute_spec",
    "resolve_runner",
]

#: A cell runner: maps one bound spec to one result-table row.
CellRunner = Callable[[RunSpec], Dict[str, object]]


class SweepError(RuntimeError):
    """Raised when a sweep's rows are required but some runs failed."""


def resolve_runner(path: str) -> CellRunner:
    """Resolve a ``"package.module:function"`` dotted path to a callable."""
    module_name, separator, attribute = path.partition(":")
    if not separator or not module_name or not attribute:
        raise ValueError(
            f"runner path {path!r} must look like 'package.module:function'"
        )
    target: object = importlib.import_module(module_name)
    for part in attribute.split("."):
        target = getattr(target, part)
    if not callable(target):
        raise TypeError(f"runner path {path!r} resolved to non-callable {target!r}")
    return target  # type: ignore[return-value]


def execute_spec(runner_path: str, spec: RunSpec) -> Tuple[str, object]:
    """Run one spec; the module-level entry point workers execute.

    Returns ``("ok", row)`` or ``("error", formatted_traceback)`` — the
    exception is stringified *inside* the worker so arbitrary (possibly
    unpicklable) exception objects never cross the process boundary.
    """
    try:
        row = resolve_runner(runner_path)(spec)
    except Exception:
        return ("error", traceback.format_exc())
    return ("ok", row)


@dataclass(frozen=True)
class RunFailure:
    """One failed run: the spec that failed and why."""

    spec: RunSpec
    error: str

    def describe(self) -> str:
        """One block for error messages: which cell, then the traceback."""
        return f"{self.spec.label()}:\n{self.error.rstrip()}"


@dataclass
class SweepReport:
    """Outcome of one sweep: per-spec rows in spec order, plus failures."""

    design: str
    runner: str
    jobs: int
    specs: List[RunSpec]
    #: One entry per spec, in spec order; ``None`` where that run failed.
    rows: List[Optional[Dict[str, object]]]
    failures: List[RunFailure]
    #: Real elapsed sweep time (via the declared wall-clock boundary).
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        """True when every run produced a row."""
        return not self.failures

    def require_rows(self) -> List[Dict[str, object]]:
        """All rows in spec order, raising :class:`SweepError` on any failure."""
        if self.failures:
            details = "\n\n".join(failure.describe() for failure in self.failures)
            raise SweepError(
                f"{len(self.failures)} of {len(self.specs)} runs of design "
                f"{self.design!r} failed:\n{details}"
            )
        return [row for row in self.rows if row is not None]


class SweepExecutor:
    """Executes a design's runs, serially or across worker processes.

    ``jobs=1`` runs every spec in-process (the deterministic reference);
    ``jobs>1`` fans specs over a process pool.  Either way the report's rows
    come back in spec order, so the merged experiment table is identical —
    the equivalence ``benchmarks/test_bench_sweep_parallel.py`` gates on.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        clock: Callable[[], float] = wall_clock,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._clock = clock

    def run(self, design: Design, runner: str) -> SweepReport:
        """Expand ``design`` and execute every spec through ``runner``."""
        specs = design.expand()
        started = self._clock()
        if self.jobs == 1 or len(specs) <= 1:
            outcomes = [execute_spec(runner, spec) for spec in specs]
        else:
            outcomes = self._run_pooled(runner, specs)
        elapsed = self._clock() - started
        rows: List[Optional[Dict[str, object]]] = []
        failures: List[RunFailure] = []
        for spec, (status, payload) in zip(specs, outcomes):
            if status == "ok":
                rows.append(dict(payload))  # type: ignore[call-overload]
            else:
                rows.append(None)
                failures.append(RunFailure(spec=spec, error=str(payload)))
        return SweepReport(
            design=design.name,
            runner=runner,
            jobs=self.jobs,
            specs=specs,
            rows=rows,
            failures=failures,
            elapsed_seconds=elapsed,
        )

    def _run_pooled(
        self, runner: str, specs: List[RunSpec]
    ) -> List[Tuple[str, object]]:
        """Fan specs over a process pool; collect outcomes in spec order.

        A worker that dies outright (hard crash, not an exception) breaks
        the pool: every not-yet-finished future raises ``BrokenProcessPool``,
        whichever spec the dead worker was running.  Each such spec is run
        again alone, in spec order, in a pool of its own; only one that
        breaks that private pool is reported as having killed its worker,
        so the healthy cells of a sweep survive a crashing neighbour.
        """
        settled: List[Tuple[str, object]] = []
        for spec, outcome in zip(
            specs, _pool_outcomes(runner, specs, min(self.jobs, len(specs)))
        ):
            if outcome is None:
                outcome = _pool_outcomes(runner, [spec], 1)[0]
            settled.append(outcome or ("error", "worker died before returning"))
        return settled


def _pool_outcomes(
    runner: str, specs: List[RunSpec], workers: int
) -> List[Optional[Tuple[str, object]]]:
    """Outcomes of ``specs`` from one fresh pool, in spec order.

    ``None`` marks a spec that was pending or running when the pool broke.
    """
    outcomes: List[Optional[Tuple[str, object]]] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(execute_spec, runner, spec) for spec in specs]
        for future in futures:
            try:
                outcomes.append(future.result())
            except BrokenProcessPool:
                outcomes.append(None)
            except Exception as exc:
                outcomes.append(("error", f"worker returned no row: {exc!r}"))
    return outcomes
