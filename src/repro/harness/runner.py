"""Run all experiments and render a report (used to regenerate EXPERIMENTS.md)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .experiments import (
    batching_ablation_experiment,
    chaos_resilience_experiment,
    conflict_experiment,
    figure1_spontaneous_order,
    geo_divergence_experiment,
    lazy_comparison_experiment,
    optimism_tradeoff_experiment,
    overlap_experiment,
    overload_experiment,
    query_experiment,
    scalability_experiment,
    sharded_scalability_experiment,
)
from .results import ExperimentResult

#: An experiment runner: keyword ``jobs`` fans design-based sweeps across
#: processes; experiments without an internal sweep accept and ignore it.
ExperimentRunner = Callable[..., ExperimentResult]

#: Registry of experiment names to their "fast" runners (reduced grids).
FAST_EXPERIMENTS: Dict[str, ExperimentRunner] = {
    "figure1": lambda jobs=1: figure1_spontaneous_order(
        intervals_ms=(0.1, 0.5, 1.0, 2.0, 4.0), messages_per_site=80
    ),
    "overlap": lambda jobs=1: overlap_experiment(
        execution_times_ms=(0.5, 2.0, 6.0), updates_per_site=20
    ),
    "conflicts": lambda jobs=1: conflict_experiment(
        class_counts=(1, 4, 16), updates_per_site=20
    ),
    "tradeoff": lambda jobs=1: optimism_tradeoff_experiment(
        receiver_jitter_us=(30.0, 400.0, 3000.0), updates_per_site=20
    ),
    "lazy": lambda jobs=1: lazy_comparison_experiment(updates_per_site=30),
    "queries": lambda jobs=1: query_experiment(
        queries_per_site_values=(0, 20), updates_per_site=20
    ),
    "scalability": lambda jobs=1: scalability_experiment(
        site_counts=(2, 4, 6), updates_per_site=20
    ),
    "sharded": lambda jobs=1: sharded_scalability_experiment(shard_counts=(1, 2, 4)),
    "chaos": lambda jobs=1: chaos_resilience_experiment(seeds=(1, 2), jobs=jobs),
    "overload": lambda jobs=1: overload_experiment(
        offered_tps=(800.0, 1600.0, 3200.0), horizon=0.15, jobs=jobs
    ),
    "geo": lambda jobs=1: geo_divergence_experiment(
        cross_base_ms=(0.5, 2.0, 10.0), updates_per_site=20, jobs=jobs
    ),
    "batching": lambda jobs=1: batching_ablation_experiment(
        batch_windows_ms=(None, 2.0),
        submission_intervals_ms=(1.0, 0.25),
        updates_per_site=30,
        jobs=jobs,
    ),
}

#: Full-size experiment runners (used when regenerating EXPERIMENTS.md).
FULL_EXPERIMENTS: Dict[str, ExperimentRunner] = {
    "figure1": lambda jobs=1: figure1_spontaneous_order(),
    "overlap": lambda jobs=1: overlap_experiment(),
    "conflicts": lambda jobs=1: conflict_experiment(),
    "tradeoff": lambda jobs=1: optimism_tradeoff_experiment(),
    "lazy": lambda jobs=1: lazy_comparison_experiment(),
    "queries": lambda jobs=1: query_experiment(),
    "scalability": lambda jobs=1: scalability_experiment(),
    "sharded": lambda jobs=1: sharded_scalability_experiment(),
    "chaos": lambda jobs=1: chaos_resilience_experiment(jobs=jobs),
    "overload": lambda jobs=1: overload_experiment(jobs=jobs),
    "geo": lambda jobs=1: geo_divergence_experiment(jobs=jobs),
    "batching": lambda jobs=1: batching_ablation_experiment(jobs=jobs),
}


@dataclass
class ExperimentSuiteResult:
    """All experiment results keyed by experiment id, in selection order."""

    results: Dict[str, ExperimentResult] = field(default_factory=dict)

    def to_markdown(self) -> str:
        """Render every result as a Markdown document body."""
        sections = [result.to_markdown() for result in self.results.values()]
        return "\n\n".join(sections)

    def to_text(self) -> str:
        """Render every result as plain-text tables."""
        blocks: List[str] = []
        for result in self.results.values():
            blocks.append(f"== {result.name} ==")
            blocks.append(result.format_table())
            blocks.append("")
        return "\n".join(blocks)


def run_experiments(
    names: Optional[Sequence[str]] = None, *, fast: bool = True, jobs: int = 1
) -> ExperimentSuiteResult:
    """Run the selected experiments.

    ``names=None`` runs the whole registry (sorted); an explicit list runs
    exactly those experiments, **in the given order** — an empty list is an
    empty selection, not "everything", and duplicate names are rejected
    instead of being silently collapsed.  ``fast=True`` uses reduced
    parameter grids suitable for CI and the benchmark suite; ``fast=False``
    runs the full sweeps used for EXPERIMENTS.md.  ``jobs`` is forwarded to
    the design-based sweep experiments, which fan their cells across that
    many worker processes (results are identical to ``jobs=1``).
    """
    registry = FAST_EXPERIMENTS if fast else FULL_EXPERIMENTS
    selected = sorted(registry) if names is None else list(names)
    duplicates = sorted({name for name in selected if selected.count(name) > 1})
    if duplicates:
        raise ValueError(
            f"duplicate experiment name(s) {duplicates}: each experiment runs "
            "once per suite; drop the repeats"
        )
    suite = ExperimentSuiteResult()
    for name in selected:
        if name not in registry:
            raise KeyError(
                f"unknown experiment {name!r}; available: {sorted(registry)}"
            )
        suite.results[name] = registry[name](jobs=jobs)
    return suite


def main() -> None:  # pragma: no cover - CLI convenience
    """Command-line entry point: run the selected suite and print the report."""
    import argparse

    parser = argparse.ArgumentParser(description="Run the OTP reproduction experiments")
    parser.add_argument("names", nargs="*", help="experiment ids (default: all)")
    parser.add_argument("--full", action="store_true", help="run the full parameter sweeps")
    parser.add_argument("--markdown", action="store_true", help="emit Markdown instead of text")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for design-based sweeps (default: 1 = serial)",
    )
    arguments = parser.parse_args()
    suite = run_experiments(
        arguments.names or None, fast=not arguments.full, jobs=arguments.jobs
    )
    print(suite.to_markdown() if arguments.markdown else suite.to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
