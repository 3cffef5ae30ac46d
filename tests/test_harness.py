"""Tests for the experiment harness, result containers and reporting."""

import os
import subprocess
import sys

import pytest

import repro.harness
import repro.harness.cells
import repro.harness.profiling
import repro.harness.runner
import repro.observability.wallclock
from repro.harness import (
    ExperimentResult,
    ascii_plot,
    format_table,
    run_experiment,
    run_experiments,
    run_standard_workload,
)
from repro.harness.profiling import profile_event_loop
from repro.core.config import BROADCAST_CONSERVATIVE, BROADCAST_OPTIMISTIC, ClusterConfig
from repro.workloads import WorkloadSpec


class TestReporting:
    def test_format_table_aligns_columns(self):
        table = format_table(["a", "long_header"], [[1, 2.5], [300, "x"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "long_header" in lines[0]
        assert "2.500" in lines[2]

    def test_ascii_plot_contains_points(self):
        plot = ascii_plot([(0.0, 0.0), (1.0, 1.0)])
        assert plot.count("*") == 2

    def test_ascii_plot_empty(self):
        assert ascii_plot([]) == "(no data)"


class TestExperimentResult:
    def test_add_row_sets_columns_and_column_access(self):
        result = ExperimentResult(name="demo", description="d")
        result.add_row(x=1, y=2.0)
        result.add_row(x=3, y=4.0)
        assert result.columns == ["x", "y"]
        assert result.column("y") == [2.0, 4.0]

    def test_format_table_and_markdown(self):
        result = ExperimentResult(name="demo", description="desc", parameters={"seed": 1})
        result.add_row(x=1, y=2.0)
        result.notes.append("a note")
        assert "x" in result.format_table()
        markdown = result.to_markdown()
        assert "### demo" in markdown
        assert "| x | y |" in markdown
        assert "- a note" in markdown

    def test_later_rows_extend_columns_instead_of_dropping_keys(self):
        # Regression: columns froze at the first row, so a later row's new
        # keys were silently dropped by format_table/to_markdown.
        result = ExperimentResult(name="demo", description="d")
        result.add_row(x=1)
        result.add_row(x=2, extra="late")
        assert result.columns == ["x", "extra"]
        assert result.column("extra") == [None, "late"]
        table = result.format_table()
        assert "extra" in table and "late" in table
        markdown = result.to_markdown()
        assert "| x | extra |" in markdown
        assert "| 2 | late |" in markdown
        # The backfilled cell of the earlier row renders blank, not "None".
        assert "| 1 |  |" in markdown

    def test_markdown_cells_escape_pipes(self):
        result = ExperimentResult(name="demo", description="d")
        result.add_row(label="a|b")
        markdown = result.to_markdown()
        assert "a\\|b" in markdown
        # The escaped cell still occupies exactly one column.
        row_line = [line for line in markdown.splitlines() if "a\\|b" in line][0]
        assert row_line.count(" | ") == 0  # single-column row: no split


class TestRunStandardWorkload:
    def test_summary_fields_are_consistent(self):
        summary = run_standard_workload(
            ClusterConfig(site_count=3, seed=1, broadcast=BROADCAST_OPTIMISTIC),
            WorkloadSpec(updates_per_site=10, class_count=4, queries_per_site=2),
        )
        assert summary.committed == 30
        assert summary.one_copy_ok
        assert summary.broadcast_ok
        assert summary.mean_client_latency > 0.0
        assert summary.throughput_tps > 0.0
        assert summary.queries_completed == 6
        assert 0.0 <= summary.mismatch_fraction <= 1.0


class TestExperiments:
    def test_figure1_percentages_are_valid_and_trend_upwards(self):
        result = run_experiment(
            "figure1", interval_ms=(0.1, 4.0), messages_per_site=60, seed=2
        )
        values = result.column("spontaneously_ordered_pct")
        assert all(0.0 <= value <= 100.0 for value in values)
        assert values[-1] >= values[0]
        assert values[-1] > 90.0

    def test_overlap_experiment_shows_latency_saving(self):
        result = run_experiment("overlap", execution_ms=(2.0,), updates_per_site=10)
        row = result.rows[0]
        assert row["otp_latency_ms"] < row["conservative_latency_ms"]
        assert row["one_copy_ok"]

    def test_unknown_override_raises_a_type_error_naming_it(self):
        with pytest.raises(TypeError, match="'intervals_ms'"):
            run_experiment("figure1", intervals_ms=(1.0,))

    def test_factor_override_replaces_the_levels_in_the_given_order(self):
        result = run_experiment("figure1", interval_ms=(4.0, 0.1), messages_per_site=10)
        assert result.column("interval_ms") == [4.0, 0.1]

    def test_base_override_reaches_the_cell_and_the_parameters(self):
        result = run_experiment(
            "figure1", interval_ms=(4.0,), messages_per_site=10, site_count=3
        )
        assert result.column("messages") == [30]
        assert result.parameters["messages_per_site"] == 10
        assert "each of 3 sites" in result.description

    def test_tradeoff_row_is_one_copy_ok_only_if_both_runs_are(self, monkeypatch):
        # Regression: the row read the optimistic run's verdict alone.
        run = repro.harness.cells.run_standard_workload

        def conservative_fails(config, spec):
            summary = run(config, spec)
            if config.broadcast == BROADCAST_CONSERVATIVE:
                summary = summary._replace(one_copy_ok=False)
            return summary

        monkeypatch.setattr(repro.harness.cells, "run_standard_workload", conservative_fails)
        result = run_experiment("tradeoff", receiver_jitter_us=(30.0,), updates_per_site=5)
        assert result.column("one_copy_ok") == [False]

    def test_lazy_notes_the_submitted_workload_first(self):
        result = run_experiment("lazy", updates_per_site=5, site_count=3)
        assert result.column("system") == ["otp", "lazy"]
        assert result.column("committed") == [15, 15]
        assert result.notes[0] == "The workload submitted 15 update transactions in total."

    def test_run_experiments_selects_by_name(self):
        suite = run_experiments(["figure1"], fast=True)
        assert set(suite.results) == {"figure1"}
        assert "Figure 1" in suite.to_text()
        assert "### Figure 1" in suite.to_markdown()

    def test_run_experiments_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            run_experiments(["does-not-exist"])

    def test_run_experiments_empty_selection_runs_nothing(self):
        # Regression: `names or sorted(registry)` treated [] as None and
        # silently ran the entire registry.
        suite = run_experiments([], fast=True)
        assert suite.results == {}
        assert suite.to_text() == ""
        assert suite.to_markdown() == ""

    def test_run_experiments_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate experiment name"):
            run_experiments(["figure1", "figure1"], fast=True)

    def test_run_experiments_preserves_user_given_order(self):
        suite = run_experiments(["overlap", "figure1"], fast=True)
        assert list(suite.results) == ["overlap", "figure1"]
        text = suite.to_text()
        assert text.index("overlap") < text.index("Figure 1")

    def test_runner_module_runs_without_warnings(self):
        # Regression: the package imported ``runner``, so ``python -m`` warned
        # that the module was already in sys.modules on every run.
        env = dict(os.environ)
        src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src_dir)
        completed = subprocess.run(
            [sys.executable, "-m", "repro.harness.runner", "lazy"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0
        assert completed.stderr == ""
        assert "== Claim C3" in completed.stdout

    def test_runner_rejects_the_removed_record_db_option(self, tmp_path):
        env = dict(os.environ)
        src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src_dir)
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.harness.runner",
                "--record-db",
                str(tmp_path / "results.sqlite"),
                "figure1",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 2
        assert "unrecognized arguments: --record-db" in completed.stderr
        assert not (tmp_path / "results.sqlite").exists()


class TestProfiling:
    def test_floor_reads_the_one_wall_clock(self, monkeypatch):
        reads = iter(range(1_000))
        monkeypatch.setattr(
            repro.observability.wallclock, "WALL_CLOCK", lambda: float(next(reads))
        )
        profile = profile_event_loop(500)
        assert profile.events == 500
        # Two reads one fake second apart bracket the 500 events.
        assert profile.microseconds_per_event == 1e6 / 500

    def test_exports_resolve_and_omit_the_removed_report_helpers(self):
        for name in repro.harness.__all__:
            assert hasattr(repro.harness, name), name
        removed = {
            "hotspots",
            "format_report",
            "standard_profiles",
            "profiles_to_metrics",
            "record_suite_timings",
            # One sweep path: the registry replaced these.
            "FAST_EXPERIMENTS",
            "FULL_EXPERIMENTS",
            "ExperimentRunner",
            "format_mapping",
            "figure1_spontaneous_order",
            "overlap_experiment",
            "conflict_experiment",
            "optimism_tradeoff_experiment",
            "lazy_comparison_experiment",
            "query_experiment",
            "scalability_experiment",
            "sharded_scalability_experiment",
            "chaos_resilience_experiment",
            "overload_experiment",
            "geo_divergence_experiment",
            "batching_ablation_experiment",
            # One host-clock instrument: python -m bench times the host.
            "profile_callback_cost",
            "profile_workload",
        }
        assert removed.isdisjoint(repro.harness.__all__)
        for module in (
            repro.harness,
            repro.harness.experiments,
            repro.harness.profiling,
            repro.harness.reporting,
            repro.harness.runner,
        ):
            assert not any(hasattr(module, name) for name in removed), module
        assert not hasattr(repro.harness.Design, "size")
