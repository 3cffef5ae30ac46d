"""The experiment registry: one entry per paper figure / claim.

Every experiment is a :class:`~repro.harness.design.Design` over one cell
function of :mod:`repro.harness.cells`, run by the one
:class:`~repro.harness.parallel.SweepExecutor`.  :data:`EXPERIMENTS` holds
each design's full grid, its fast (CI-sized) overrides and its report text;
:func:`run_experiment` runs one entry and :func:`run_experiments` a
selection.  ``docs/experiments.md`` catalogues them, and
``python -m repro.harness.runner --full --markdown`` renders the full-size
report.

A factor's name is the row column it fills, so an override names what the
table shows: ``run_experiment("batching", window_ms=(None, 2.0))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..chaos.scenarios import SCENARIOS as CHAOS_SCENARIOS
from ..network.latency import DEFAULT_INTRA_PROFILE
from ..simulation.clock import milliseconds
from .design import Design
from .parallel import SweepExecutor
from .results import ExperimentResult

Params = Dict[str, object]


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: a factorial design over one cell function."""

    #: Title of the result table.
    title: str
    #: The table's description, from the base values and the factor levels.
    describe: Callable[[Params], str]
    #: Dotted path of the cell function (``"package.module:function"``).
    cell: str
    #: Full-grid factor levels; each factor fills the row column of its name.
    factors: Mapping[str, Tuple[object, ...]]
    #: Constants every cell shares; they are the result's ``parameters``.
    base: Mapping[str, object]
    #: Overrides that shrink the grid to the fast (CI-sized) suite.
    fast: Mapping[str, object] = field(default_factory=dict)
    notes: Tuple[str, ...] = ()
    #: Post-merge hook: fills cross-cell columns and run-dependent notes.
    finish: Optional[Callable[[ExperimentResult, Params], None]] = None


def _fill_speedup_vs_off(result: ExperimentResult, params: Params) -> None:
    """Batching's one cross-cell column: throughput over the unbatched cell.

    Rows arrive in spec order (interval outermost), so each interval's
    unbatched cell precedes its batched ones when ``None`` is a level.
    """
    current_interval: object = object()
    baseline_tps: Optional[float] = None
    for row in result.rows:
        if row["interval_ms"] != current_interval:
            current_interval = row["interval_ms"]
            baseline_tps = None
        throughput = float(row["throughput_tps"])  # type: ignore[arg-type]
        if row["batching"] == "off":
            baseline_tps = throughput
        # No unbatched cell ran (yet) for this interval: report no speedup
        # rather than a misleading 1.0.
        row["speedup_vs_off"] = None
        if baseline_tps is not None and baseline_tps > 0:
            row["speedup_vs_off"] = throughput / baseline_tps


def _note_submitted_updates(result: ExperimentResult, params: Params) -> None:
    """Lazy's workload size: every site submits ``updates_per_site`` updates."""
    submitted = params["site_count"] * params["updates_per_site"]
    result.notes.append(
        f"The workload submitted {submitted} update transactions in total."
    )


def _describe_overload(p: Params) -> str:
    knee_tps = p["class_count"] / milliseconds(p["execution_ms"])
    return (
        f"Open-loop Poisson arrivals swept across the saturation knee "
        f"(~{knee_tps:.0f} tps: {p['class_count']} classes x {p['execution_ms']} ms "
        f"serial execution) on {p['site_count']} sites, with the per-site "
        f"admission valve (high/low watermark "
        f"{p['high_watermark']}/{p['low_watermark']}) off vs. on."
    )


#: Every registered experiment, keyed by its runner id.
EXPERIMENTS: Dict[str, Experiment] = {
    # Paper Figure 1: spontaneous total order vs. inter-broadcast interval.
    "figure1": Experiment(
        title="Figure 1 — spontaneous total order",
        describe=lambda p: (
            "Percentage of spontaneously totally-ordered multicast messages as a "
            "function of the interval between broadcasts on each of "
            f"{p['site_count']} sites (paper: ~99% at 4 ms on 10 Mbit/s Ethernet)."
        ),
        cell="repro.harness.cells:figure1_cell",
        factors={"interval_ms": (0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0)},
        base=dict(
            site_count=4, messages_per_site=150, seed=1, medium_frame_time=0.00022,
            receiver_jitter_mean=0.000045,
        ),
        fast=dict(interval_ms=(0.1, 0.5, 1.0, 2.0, 4.0), messages_per_site=80),
        notes=(
            "The paper measured ~99% at a 4 ms interval and a drop towards the "
            "80s as the interval approaches 0; the simulated LAN model is "
            "calibrated to reproduce that shape.",
        ),
    ),
    # Claim C1: overlapping execution with the ordering phase hides its latency.
    "overlap": Experiment(
        title="Claim C1 — overlap of ordering and execution",
        describe=lambda p: (
            "Mean client-observed commit latency (ms) of OTP vs. conservative "
            "processing as the transaction execution time grows."
        ),
        cell="repro.harness.cells:overlap_cell",
        factors={"execution_ms": (0.5, 1.0, 2.0, 4.0, 8.0)},
        base=dict(
            site_count=4, updates_per_site=40, class_count=8, update_interval=0.006,
            seed=3,
        ),
        fast=dict(execution_ms=(0.5, 2.0, 6.0), updates_per_site=20),
        notes=(
            "OTP latency should stay close to the conservative latency minus the "
            "ordering delay (the ordering phase is overlapped with execution).",
        ),
    ),
    # Claim C2: mismatches only cost work for conflicting transactions.
    "conflicts": Experiment(
        title="Claim C2 — aborts vs. conflict rate",
        describe=lambda p: (
            "Reorder aborts (CC8) and commit latency as a function of the number "
            "of conflict classes under a bursty workload."
        ),
        cell="repro.harness.cells:conflict_cell",
        factors={"class_count": (1, 2, 4, 8, 16)},
        base=dict(
            site_count=4, updates_per_site=40, update_interval=0.003, execution_ms=0.3,
            seed=5,
        ),
        fast=dict(class_count=(1, 4, 16), updates_per_site=20),
        notes=(
            "The order-mismatch percentage is a property of the network and stays "
            "flat, while aborts fall as transactions spread over more classes.",
        ),
    ),
    # Claim C5: the optimism trade-off vs. spontaneous-order probability.
    "tradeoff": Experiment(
        title="Claim C5 — optimistic/conservative trade-off",
        describe=lambda p: (
            "Mismatch rate, aborts and latency advantage of OTP over the "
            "conservative baseline as the per-receiver network jitter grows."
        ),
        cell="repro.harness.cells:tradeoff_cell",
        factors={"receiver_jitter_us": (30.0, 120.0, 400.0, 1000.0, 3000.0)},
        base=dict(
            site_count=4, updates_per_site=40, class_count=4, update_interval=0.002,
            execution_ms=2.0, seed=7,
        ),
        fast=dict(receiver_jitter_us=(30.0, 400.0, 3000.0), updates_per_site=20),
        notes=(
            "Messages are never delivered in a wrong definitive order; higher jitter "
            "only increases the undo/redo penalty, never violates correctness.",
        ),
    ),
    # Claim C3: OTP vs. asynchronous (lazy) replication on the same workload.
    "lazy": Experiment(
        title="Claim C3 — OTP vs. asynchronous (lazy) replication",
        describe=lambda p: (
            "Latency and consistency comparison between OTP and a lazy "
            "(commit-locally, propagate-later) replication scheme under the "
            "same workload."
        ),
        cell="repro.harness.cells:lazy_cell",
        factors={"system": ("otp", "lazy")},
        base=dict(
            site_count=4, updates_per_site=60, class_count=4, update_interval=0.003,
            execution_ms=2.0, seed=11,
        ),
        fast=dict(updates_per_site=30),
        notes=(
            "Lazy replication commits before coordinating, so its latency excludes "
            "any ordering delay, but conflicting updates issued at different sites "
            "are silently reconciled by last-writer-wins (lost updates).",
        ),
        finish=_note_submitted_updates,
    ),
    # Claim C4: snapshot queries do not delay update transactions.
    "queries": Experiment(
        title="Claim C4 — snapshot queries",
        describe=lambda p: (
            "Update-transaction commit latency and query response time as the "
            "per-site query load grows (queries read "
            f"{p['query_span']} conflict classes each)."
        ),
        cell="repro.harness.cells:query_cell",
        factors={"queries_per_site": (0, 10, 30, 60)},
        base=dict(
            site_count=4, updates_per_site=30, class_count=6, query_span=3,
            update_interval=0.004, execution_ms=2.0, query_ms=4.0, seed=13,
        ),
        fast=dict(queries_per_site=(0, 20), updates_per_site=20),
        notes=(
            "Update latency stays flat because queries never enter the class queues; "
            "they read consistent multi-version snapshots (paper Section 5).",
        ),
    ),
    # Ablation: throughput/latency of OTP vs. conservative as sites are added.
    "scalability": Experiment(
        title="Scalability — sites sweep",
        describe=lambda p: (
            "Throughput (committed update transactions per second) and mean "
            "latency for OTP and conservative processing as sites are added."
        ),
        cell="repro.harness.cells:scalability_cell",
        factors={"site_count": (2, 4, 6, 8)},
        base=dict(
            updates_per_site=30, class_count=8, update_interval=0.004,
            execution_ms=2.0, seed=17,
        ),
        fast=dict(site_count=(2, 4, 6), updates_per_site=20),
        notes=(
            "Every site executes every update transaction (full replication), so "
            "aggregate throughput grows with the offered load until the per-class "
            "serial execution becomes the bottleneck.",
        ),
    ),
    # Scale-out: aggregate throughput with one broadcast group per shard.
    "sharded": Experiment(
        title="Sharded scale-out — shards sweep",
        describe=lambda p: (
            "Aggregate committed-update throughput and latency as conflict "
            "classes are sharded over independent broadcast groups at fixed "
            "per-shard load."
        ),
        cell="repro.harness.cells:sharded_cell",
        factors={"shard_count": (1, 2, 4, 8)},
        base=dict(
            sites_per_shard=3, classes_per_shard=2, updates_per_shard=60,
            update_interval=0.004, queries=12, query_span=3, execution_ms=2.0, seed=23,
        ),
        fast=dict(shard_count=(1, 2, 4)),
        notes=(
            "Per-shard load is fixed, so total offered load grows linearly with the "
            "shard count; aggregate throughput follows because the shards' broadcast "
            "groups sequence independently (no global sequencer bottleneck).",
            "Queries span several conflict classes and therefore shards; the "
            "router merges consistent per-shard snapshots (verified per run).",
        ),
    ),
    # Fault scenarios must preserve every correctness property (paper Section 2).
    "chaos": Experiment(
        title="Chaos resilience — fault scenario sweep",
        describe=lambda p: (
            "Correctness verdicts (1SR, query snapshot consistency, eventual "
            "termination) and commit completeness for each fault scenario "
            f"across seeds {tuple(p['seed'])}."
        ),
        cell="repro.harness.cells:chaos_cell",
        factors={"scenario": tuple(sorted(CHAOS_SCENARIOS)), "seed": (1, 2, 3, 4, 5)},
        base={},
        fast=dict(seed=(1, 2)),
        notes=(
            "Every row must show committed == submitted and all three verdicts "
            "True; a False anywhere means a fault schedule falsified a paper "
            "property and the trace of that (scenario, seed) pair reproduces it "
            "deterministically.",
        ),
    ),
    # Open-loop load across the saturation knee (~class_count / execution
    # time), with the admission valve off and on.  The seed is a base value,
    # so both modes of one load level see the identical arrival schedule.
    "overload": Experiment(
        title="Overload — open-loop saturation with and without admission control",
        describe=_describe_overload,
        cell="repro.harness.cells:overload_cell",
        factors={
            "offered_tps": (600.0, 1200.0, 1800.0, 2400.0, 3600.0),
            "admission": ("off", "on"),
        },
        base=dict(
            horizon=0.25, class_count=4, execution_ms=2.0, site_count=4,
            high_watermark=48, low_watermark=24, seed=7,
        ),
        fast=dict(offered_tps=(800.0, 1600.0, 3200.0), horizon=0.15),
        notes=(
            "Goodput counts only commits achieved inside the offered-load window "
            "(committed_at <= horizon): an unbounded backlog drained after the "
            "horizon earns nothing.  Past the knee the admission=on rows must "
            "keep p99 bounded while shedding the excess; the admission=off rows "
            "show the open-loop failure mode — queue depth and tail latency "
            "growing with offered load.  1SR holds in every cell either way.",
        ),
    ),
    # Opt/TO divergence vs. WAN link-delay spread.  The cross-region grid
    # stays above the intra-region base (0.4 ms — below it the topology
    # inverts) and below the ~20 ms point where nearly every concurrent pair
    # already diverges and the curve flattens into noise.
    "geo": Experiment(
        title="Geo divergence — opt/TO divergence vs. WAN link spread",
        describe=lambda p: (
            "Opt-delivery vs. definitive-order divergence as the cross-region "
            f"link delay grows, on {p['site_count']} sites striped over regions "
            f"{tuple(p['regions'])} (intra-region links stay at "
            f"{DEFAULT_INTRA_PROFILE.base * 1e6:.0f} us)."
        ),
        cell="repro.harness.cells:geo_cell",
        factors={"cross_base_ms": (0.5, 1.0, 2.0, 5.0, 10.0)},
        base=dict(
            regions=("eu", "us", "ap"), site_count=6, updates_per_site=30,
            class_count=4, update_interval=0.002, execution_ms=0.5,
            cross_jitter_fraction=0.15, seed=7,
        ),
        fast=dict(cross_base_ms=(0.5, 2.0, 10.0), updates_per_site=20),
        notes=(
            "The divergence rate is what the CC8 reordering rule has to repair: "
            "it should rise monotonically with the round-trip spread while "
            "1-copy-serializability holds in every cell (definitive order wins).",
        ),
    ),
    # Batching ablation: window (None = off) x per-site submission interval
    # on a shared medium whose 220 us frame time (a 275-byte frame on the
    # paper's 10 Mbit/s testbed) makes the per-message ordering cost visible.
    "batching": Experiment(
        title="Batching ablation — window x submission rate",
        describe=lambda p: (
            "Committed-update throughput, client latency and reorder aborts "
            "as the batching window grows, for per-site submission intervals "
            f"{tuple(p['interval_ms'])} ms on a shared medium with a "
            f"{p['medium_frame_time'] * 1e6:.0f} us frame time."
        ),
        cell="repro.harness.cells:batching_cell",
        factors={"interval_ms": (4.0, 1.0, 0.25), "window_ms": (None, 0.5, 2.0)},
        base=dict(
            site_count=4, updates_per_site=40, class_count=8, execution_ms=0.3,
            max_batch_size=32, medium_frame_time=0.00022, seed=7,
        ),
        fast=dict(interval_ms=(1.0, 0.25), window_ms=(None, 2.0), updates_per_site=30),
        notes=(
            "At the smallest interval the medium is saturated by ordering "
            "traffic; batching multiplies throughput (the acceptance gate is "
            ">= 1.5x at the highest rate) without inflating the abort rate, and "
            "1SR plus the five OAB properties hold in every cell.",
            "At the 4 ms interval batching is within noise of the unbatched "
            "run: a window only helps once submissions actually coalesce.",
        ),
        finish=_fill_speedup_vs_off,
    ),
}


def _registered(name: str) -> Experiment:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(
    name: str, *, fast: bool = False, jobs: int = 1, **overrides: object
) -> ExperimentResult:
    """Run one registered experiment through the sweep executor.

    ``fast=True`` applies the experiment's CI-sized grid.  Each override
    names a factor (its value replaces the levels, in the given order) or a
    base parameter (its value replaces the constant); any other name raises
    :class:`TypeError`.  ``jobs>1`` fans the cells across that many worker
    processes with a result identical to ``jobs=1``.
    """
    experiment = _registered(name)
    factors = dict(experiment.factors)
    base = dict(experiment.base)
    for key, value in {**(experiment.fast if fast else {}), **overrides}.items():
        if key in factors:
            factors[key] = tuple(value)
        elif key in base:
            base[key] = value
        else:
            raise TypeError(
                f"experiment {name!r} got an unexpected parameter {key!r}; "
                f"it takes {sorted([*factors, *base])}"
            )
    params = {**base, **factors}
    result = ExperimentResult(
        name=experiment.title, description=experiment.describe(params), parameters=base
    )
    design = Design(name=name, factors=factors, base=base)
    for row in SweepExecutor(jobs=jobs).run(design, experiment.cell).require_rows():
        result.add_row(**row)
    if experiment.finish is not None:
        experiment.finish(result, params)
    result.notes.extend(experiment.notes)
    return result


@dataclass
class ExperimentSuiteResult:
    """All experiment results keyed by experiment id, in selection order."""

    results: Dict[str, ExperimentResult] = field(default_factory=dict, init=False)

    def to_markdown(self) -> str:
        """Render every result as a Markdown document body."""
        return "\n\n".join(result.to_markdown() for result in self.results.values())

    def to_text(self) -> str:
        """Render every result as plain-text tables."""
        blocks: List[str] = []
        for result in self.results.values():
            blocks.extend([f"== {result.name} ==", result.format_table(), ""])
        return "\n".join(blocks)


def run_experiments(
    names: Optional[Sequence[str]] = None, *, fast: bool = True, jobs: int = 1
) -> ExperimentSuiteResult:
    """Run the selected experiments.

    ``names=None`` runs the whole registry (sorted); an explicit list runs
    exactly those experiments, **in the given order** — an empty list is an
    empty selection, not "everything", and duplicate names are rejected
    instead of being silently collapsed.  ``fast=True`` uses the reduced
    grids suitable for CI; ``fast=False`` runs the full sweeps.  ``jobs``
    fans every experiment's cells across that many worker processes
    (results are identical to ``jobs=1``).
    """
    selected = sorted(EXPERIMENTS) if names is None else list(names)
    duplicates = sorted({name for name in selected if selected.count(name) > 1})
    if duplicates:
        raise ValueError(
            f"duplicate experiment name(s) {duplicates}: each experiment runs "
            "once per suite; drop the repeats"
        )
    for name in selected:
        _registered(name)
    suite = ExperimentSuiteResult()
    for name in selected:
        suite.results[name] = run_experiment(name, fast=fast, jobs=jobs)
    return suite
