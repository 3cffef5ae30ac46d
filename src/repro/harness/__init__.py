"""Experiment harness: one experiment per paper figure/claim, plus reporting."""

from ..observability.summary import RunSummary, finish_run, summarize_run
from .experiments import (
    batching_ablation_experiment,
    chaos_resilience_experiment,
    conflict_experiment,
    figure1_spontaneous_order,
    geo_divergence_experiment,
    lazy_comparison_experiment,
    optimism_tradeoff_experiment,
    overlap_experiment,
    query_experiment,
    run_sharded_workload,
    run_standard_workload,
    scalability_experiment,
    sharded_scalability_experiment,
)
from .design import Design, RunSpec, derive_run_seed
from .parallel import (
    RunFailure,
    SweepError,
    SweepExecutor,
    SweepReport,
)
from .profiling import (
    HotpathProfile,
    profile_callback_cost,
    profile_event_loop,
    profile_workload,
)
from .reporting import ascii_plot, format_mapping, format_table
from .results import ExperimentResult
from .runner import (
    FAST_EXPERIMENTS,
    FULL_EXPERIMENTS,
    ExperimentSuiteResult,
    run_experiments,
)

__all__ = [
    "Design",
    "RunSpec",
    "derive_run_seed",
    "RunFailure",
    "SweepError",
    "SweepExecutor",
    "SweepReport",
    "RunSummary",
    "finish_run",
    "summarize_run",
    "run_sharded_workload",
    "sharded_scalability_experiment",
    "batching_ablation_experiment",
    "chaos_resilience_experiment",
    "conflict_experiment",
    "figure1_spontaneous_order",
    "geo_divergence_experiment",
    "lazy_comparison_experiment",
    "optimism_tradeoff_experiment",
    "overlap_experiment",
    "query_experiment",
    "run_standard_workload",
    "scalability_experiment",
    "HotpathProfile",
    "profile_callback_cost",
    "profile_event_loop",
    "profile_workload",
    "ascii_plot",
    "format_mapping",
    "format_table",
    "ExperimentResult",
    "FAST_EXPERIMENTS",
    "FULL_EXPERIMENTS",
    "ExperimentSuiteResult",
    "run_experiments",
]
