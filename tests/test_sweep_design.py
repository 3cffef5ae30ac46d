"""Tests for the factorial design layer and the parallel sweep executor."""

import os
import subprocess
import sys

import pytest

from repro.harness.design import Design, RunSpec, derive_run_seed
from repro.harness.parallel import (
    RunFailure,
    SweepError,
    SweepExecutor,
    execute_spec,
    resolve_runner,
)

PROBE = "repro.harness.cells:seed_probe_cell"


def _probe_design(**overrides):
    settings = dict(
        name="probe",
        factors={"alpha": (1, 2), "beta": ("x", "y")},
        seeds=range(2),
    )
    settings.update(overrides)
    return Design(**settings)


class TestDesignExpansion:
    def test_size_and_order_cross_in_declaration_order(self):
        design = _probe_design()
        specs = design.expand()
        assert design.size == len(specs) == 8
        assert [spec.index for spec in specs] == list(range(8))
        # First factor varies slowest, seed index fastest.
        assert [
            (spec.factors["alpha"], spec.factors["beta"], spec.seed_index)
            for spec in specs[:4]
        ] == [(1, "x", 0), (1, "x", 1), (1, "y", 0), (1, "y", 1)]

    def test_base_parameters_reach_every_spec(self):
        design = _probe_design(base={"sites": 4})
        for spec in design.expand():
            assert spec.base == {"sites": 4}
            assert spec.params()["sites"] == 4
            assert spec.params()["alpha"] == spec.factors["alpha"]

    def test_seed_derivation_depends_on_cell_and_replicate_only(self):
        specs = _probe_design().expand()
        seeds = [spec.seed for spec in specs]
        assert len(set(seeds)) == len(seeds)  # every run independent
        # Base parameters do not enter the derivation: a sizing tweak must
        # not reshuffle the randomness of an otherwise identical grid.
        resized = _probe_design(base={"sites": 99}).expand()
        assert [spec.seed for spec in resized] == seeds
        # But the design name, factor values and seed index all do.
        assert derive_run_seed("probe", {"alpha": 1, "beta": "x"}, 0) == seeds[0]
        assert derive_run_seed("other", {"alpha": 1, "beta": "x"}, 0) != seeds[0]
        assert derive_run_seed("probe", {"alpha": 1, "beta": "x"}, 1) != seeds[0]

    def test_validation_rejects_bad_designs(self):
        with pytest.raises(ValueError, match="non-empty name"):
            Design(name="", factors={"a": [1]})
        with pytest.raises(ValueError, match="declares no factors"):
            Design(name="d", factors={})
        with pytest.raises(ValueError, match="has no levels"):
            Design(name="d", factors={"a": []})
        with pytest.raises(ValueError, match="repeats level"):
            Design(name="d", factors={"a": [1, 1]})
        with pytest.raises(ValueError, match="both a factor and a base"):
            Design(name="d", factors={"a": [1]}, base={"a": 2})
        with pytest.raises(ValueError, match="seeds must be non-empty"):
            Design(name="d", factors={"a": [1]}, seeds=())

    def test_expansion_is_deterministic_across_hash_seeds(self):
        # The derived seeds are SHA-256 content hashes (the RandomSource.fork
        # scheme), so two processes with different PYTHONHASHSEEDs must
        # expand the same design to identical spec lists AND produce
        # identical merged sweep results through the parallel executor.
        snippet = (
            "from repro.harness.design import Design;"
            "from repro.harness.parallel import SweepExecutor;"
            "d = Design(name='probe', factors={'alpha': (1, 2), 'beta': ('x', 'y')},"
            " seeds=range(2));"
            "print([(s.index, s.factors, s.seed) for s in d.expand()]);"
            f"r = SweepExecutor(jobs=2).run(d, {PROBE!r});"
            "print(r.rows)"
        )
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
            env["PYTHONPATH"] = os.path.abspath(src_dir)
            completed = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            assert completed.returncode == 0, completed.stderr
            outputs.append(completed.stdout)
        assert outputs[0] == outputs[1]


class TestRunnerResolution:
    def test_resolves_dotted_path(self):
        runner = resolve_runner(PROBE)
        assert callable(runner)

    def test_rejects_malformed_paths(self):
        with pytest.raises(ValueError, match="package.module:function"):
            resolve_runner("repro.harness.cells.seed_probe_cell")
        with pytest.raises(ValueError, match="package.module:function"):
            resolve_runner(":seed_probe_cell")

    def test_rejects_non_callable_target(self):
        with pytest.raises(TypeError, match="non-callable"):
            resolve_runner("repro.harness.cells:__doc__")

    def test_execute_spec_captures_worker_side_errors(self):
        spec = Design(name="d", factors={"fail": [True]}).expand()[0]
        status, payload = execute_spec(
            "repro.harness.cells:failing_probe_cell", spec
        )
        assert status == "error"
        assert "was told to fail" in payload


class TestSweepExecutor:
    def test_rejects_non_positive_jobs(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            SweepExecutor(jobs=0)

    def test_serial_and_parallel_reports_are_identical(self):
        design = _probe_design()
        serial = SweepExecutor(jobs=1).run(design, PROBE)
        parallel = SweepExecutor(jobs=3).run(design, PROBE)
        assert serial.ok and parallel.ok
        assert serial.rows == parallel.rows
        assert serial.specs == parallel.specs
        assert serial.require_rows() == parallel.require_rows()
        # Rows come back in spec order regardless of completion order.
        assert [row["alpha"] for row in serial.require_rows()] == [
            spec.factors["alpha"] for spec in design.expand()
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_partial_failure_surfaces_spec_and_keeps_other_rows(self, jobs):
        design = Design(
            name="partial", factors={"fail": (False, True)}, seeds=(0, 1)
        )
        report = SweepExecutor(jobs=jobs).run(
            design, "repro.harness.cells:failing_probe_cell"
        )
        assert not report.ok
        assert len(report.rows) == 4
        assert report.rows[0] is not None and report.rows[1] is not None
        assert report.rows[2] is None and report.rows[3] is None
        assert len(report.failures) == 2
        failure = report.failures[0]
        assert isinstance(failure, RunFailure)
        assert failure.spec.factors == {"fail": True}
        assert "was told to fail" in failure.error
        assert "fail=True" in failure.describe()
        with pytest.raises(SweepError, match="2 of 4 runs"):
            report.require_rows()

    def test_worker_crash_becomes_per_run_failure(self):
        # A worker that dies outright (os._exit — same face as a segfault)
        # must not kill the sweep: the affected specs become failures and
        # the executor still returns a full report.
        design = Design(
            name="crashy", factors={"fail": (False, True)}, seeds=(0,)
        )
        report = SweepExecutor(jobs=2).run(
            design, "repro.harness.cells:exiting_probe_cell"
        )
        assert len(report.rows) == 2
        assert report.failures
        assert all(failure.spec.factors["fail"] for failure in report.failures)
        with pytest.raises(SweepError):
            report.require_rows()

    def test_one_crashing_cell_does_not_take_its_neighbours_down(self):
        # The dead worker breaks the whole pool, so every spec still pending
        # or running raises BrokenProcessPool; only the specs that crash
        # when run on their own may be reported as failures.
        design = Design(
            name="crashy2",
            factors={"fail": (True, False), "pad": (0, 1, 2, 3)},
            seeds=(0,),
        )
        runner = "repro.harness.cells:exiting_probe_cell"
        report = SweepExecutor(jobs=2).run(design, runner)
        assert [failure.spec for failure in report.failures] == report.specs[:4]
        assert all(spec.factors["fail"] for spec in report.specs[:4])
        assert "worker died" in report.failures[0].error
        healthy = Design(
            name="crashy2", factors={"fail": (False,), "pad": (0, 1, 2, 3)}, seeds=(0,)
        )
        assert report.rows == [None] * 4 + SweepExecutor(jobs=1).run(healthy, runner).rows

    def test_elapsed_uses_injected_clock(self):
        ticks = iter([10.0, 17.5])
        executor = SweepExecutor(jobs=1, clock=lambda: next(ticks))
        report = executor.run(_probe_design(), PROBE)
        assert report.elapsed_seconds == pytest.approx(7.5)


class TestSpecPickling:
    def test_runspec_round_trips_through_pickle(self):
        import pickle

        spec = _probe_design(base={"sites": 4}).expand()[3]
        clone = pickle.loads(pickle.dumps(spec))
        assert isinstance(clone, RunSpec)
        assert clone == spec
        assert clone.params() == spec.params()
