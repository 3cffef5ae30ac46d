"""Experiment harness: one experiment per paper figure/claim, plus reporting."""

from ..observability.summary import RunSummary, finish_run, summarize_run
from .cells import run_sharded_workload, run_standard_workload
from .design import Design, RunSpec, derive_run_seed
from .experiments import (
    EXPERIMENTS,
    Experiment,
    ExperimentSuiteResult,
    run_experiment,
    run_experiments,
)
from .parallel import (
    RunFailure,
    SweepError,
    SweepExecutor,
    SweepReport,
)
from .reporting import ascii_plot, format_table
from .results import ExperimentResult

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
    "run_standard_workload",
    "EXPERIMENTS",
    "Experiment",
    "ExperimentSuiteResult",
    "run_experiment",
    "run_experiments",
    "ascii_plot",
    "format_table",
    "ExperimentResult",
]
