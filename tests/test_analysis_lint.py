"""Golden-fixture tests for the determinism & isolation lint suite.

Each rule gets at least one fixture that MUST fire (true positive) and one
that MUST stay silent (true negative), so the rule pack cannot silently go
blind.  The suppression pragma contract, the JSON output schema, the
exit-code contract and the baseline round-trip are covered against
``tools/lint.py`` itself.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import LintEngine, default_rules
from repro.analysis.baseline import (
    filter_baselined,
    load_baseline,
    write_baseline,
)
from repro.analysis.rules import (
    KernelHotPathAllocationRule,
    NoCrossSiteOracleRule,
    NoUnorderedIterationRule,
    NoWallclockRule,
    SeededRandomnessRule,
    TracerGuardRule,
)

import tools.lint as lint_cli


@pytest.fixture()
def engine():
    return LintEngine(default_rules())


def rules_of(findings):
    return [finding.rule for finding in findings]


def lint(engine, source, scope="core/module.py"):
    return engine.lint_source(source, path=scope, scope_path=scope)


# --------------------------------------------------------------------- rules
class TestNoWallclock:
    POSITIVE = "import time\n\nstamp = time.time()\n"
    NEGATIVE = "def stamp(kernel):\n    return kernel.now()\n"

    def test_positive_time_module(self, engine):
        findings = lint(engine, self.POSITIVE)
        assert rules_of(findings) == ["no-wallclock"]
        assert findings[0].line == 3
        assert "kernel.now()" in findings[0].hint

    def test_positive_from_import_and_datetime(self, engine):
        assert rules_of(
            lint(engine, "from time import monotonic\nx = monotonic()\n")
        ) == ["no-wallclock"]
        assert rules_of(
            lint(engine, "from datetime import datetime\nd = datetime.now()\n")
        ) == ["no-wallclock"]

    def test_negative(self, engine):
        assert lint(engine, self.NEGATIVE) == []

    def test_allowlisted_boundary_module_is_exempt(self, engine):
        findings = engine.lint_source(
            self.POSITIVE,
            path="observability/wallclock.py",
            scope_path="observability/wallclock.py",
        )
        assert findings == []

    def test_time_sleep_is_not_a_clock_read(self, engine):
        assert lint(engine, "import time\ntime.sleep(1)\n") == []


class TestSeededRandomnessOnly:
    POSITIVE = "import random\n\nvalue = random.random()\n"
    NEGATIVE = (
        "def jitter(kernel):\n"
        '    return kernel.random.stream("net").uniform(0.0, 1.0)\n'
    )

    def test_positive_module_level_random(self, engine):
        findings = lint(engine, self.POSITIVE)
        assert rules_of(findings) == ["seeded-randomness-only"]
        assert "RandomStream" in findings[0].hint

    def test_positive_unseeded_random_even_in_wrapper(self, engine):
        findings = engine.lint_source(
            "import random\nrng = random.Random()\n",
            path="simulation/randomness.py",
            scope_path="simulation/randomness.py",
        )
        assert rules_of(findings) == ["seeded-randomness-only"]

    def test_negative(self, engine):
        assert lint(engine, self.NEGATIVE) == []

    def test_wrapper_module_may_construct_seeded_random(self, engine):
        findings = engine.lint_source(
            "import random\nrng = random.Random(42)\n",
            path="simulation/randomness.py",
            scope_path="simulation/randomness.py",
        )
        assert findings == []


class TestNoUnorderedIteration:
    POSITIVE = (
        "def schedule_all(pending: set):\n"
        "    for item in pending:\n"
        "        schedule(item)\n"
    )
    NEGATIVE = (
        "def schedule_all(pending: set):\n"
        "    for item in sorted(pending):\n"
        "        schedule(item)\n"
    )

    def test_positive_for_loop(self, engine):
        findings = lint(engine, self.POSITIVE, scope="broadcast/endpoint.py")
        assert rules_of(findings) == ["no-unordered-iteration"]
        assert findings[0].line == 2

    def test_negative_sorted(self, engine):
        assert lint(engine, self.NEGATIVE, scope="broadcast/endpoint.py") == []

    def test_positive_inferred_local_and_attribute(self, engine):
        source = (
            "class Endpoint:\n"
            "    def __init__(self):\n"
            "        self._pending = set()\n"
            "    def flush(self):\n"
            "        return [p for p in self._pending]\n"
        )
        findings = lint(engine, source, scope="core/endpoint.py")
        assert rules_of(findings) == ["no-unordered-iteration"]

    def test_positive_list_materialisation(self, engine):
        source = "ids = {1, 2, 3}\nordered = list(ids)\n"
        assert rules_of(lint(engine, source, scope="simulation/x.py")) == [
            "no-unordered-iteration"
        ]

    def test_negative_membership_and_aggregates(self, engine):
        source = (
            "ids = {1, 2, 3}\n"
            "present = 2 in ids\n"
            "count = len(ids)\n"
            "top = max(ids)\n"
        )
        assert lint(engine, source, scope="core/x.py") == []

    def test_negative_outside_scoped_packages(self, engine):
        findings = engine.lint_source(
            self.POSITIVE, path="metrics/x.py", scope_path="metrics/x.py"
        )
        assert findings == []

    def test_positive_workloads_in_scope(self, engine):
        # Workload generation feeds the protocol: a hash-ordered span of
        # conflict classes changes which histories a seed produces.
        findings = lint(engine, self.POSITIVE, scope="workloads/x.py")
        assert rules_of(findings) == ["no-unordered-iteration"]

    def test_negative_dict_iteration_is_order_documented(self, engine):
        source = "def f(d: dict):\n    for k in d:\n        use(k)\n"
        assert lint(engine, source, scope="core/x.py") == []


class TestTracerGuard:
    POSITIVE = (
        "class Replica:\n"
        "    def commit(self):\n"
        '        self.tracer.record("commit")\n'
    )
    NEGATIVE = (
        "class Replica:\n"
        "    def commit(self):\n"
        "        if self.tracer is not None:\n"
        '            self.tracer.record("commit")\n'
    )

    def test_positive_unguarded_call(self, engine):
        findings = lint(engine, self.POSITIVE)
        assert rules_of(findings) == ["tracer-guard"]
        assert "self.tracer" in findings[0].message

    def test_negative_guarded(self, engine):
        assert lint(engine, self.NEGATIVE) == []

    def test_negative_early_return_guard(self, engine):
        source = (
            "class Replica:\n"
            "    def commit(self):\n"
            "        if self.tracer is None:\n"
            "            return\n"
            '        self.tracer.record("commit")\n'
        )
        assert lint(engine, source) == []

    def test_negative_and_short_circuit(self, engine):
        source = (
            "class Replica:\n"
            "    def commit(self):\n"
            '        ok = self.tracer is not None and self.tracer.record("c")\n'
        )
        assert lint(engine, source) == []

    def test_positive_guard_on_different_receiver(self, engine):
        source = (
            "class Replica:\n"
            "    def commit(self, other):\n"
            "        if other.tracer is not None:\n"
            '            self.tracer.record("commit")\n'
        )
        assert rules_of(lint(engine, source)) == ["tracer-guard"]

    def test_guard_does_not_leak_out_of_branch(self, engine):
        source = (
            "class Replica:\n"
            "    def commit(self):\n"
            "        if self.tracer is not None:\n"
            "            pass\n"
            '        self.tracer.record("commit")\n'
        )
        assert rules_of(lint(engine, source)) == ["tracer-guard"]


class TestNoCrossSiteOracle:
    POSITIVE = (
        "class Scheduler:\n"
        "    def steal_state(self, peer):\n"
        "        return peer.commit_frontier\n"
    )
    NEGATIVE = (
        "class Replica:\n"
        "    def catch_up_from(self, donor):\n"
        "        return donor.commit_frontier\n"
    )

    def test_positive_peer_dereference(self, engine):
        findings = lint(engine, self.POSITIVE)
        assert rules_of(findings) == ["no-cross-site-oracle"]
        assert "peer.commit_frontier" in findings[0].message

    def test_negative_declared_donor_path(self, engine):
        assert lint(engine, self.NEGATIVE) == []

    def test_positive_registry_private_reach(self, engine):
        source = (
            "def poke(cluster, site):\n"
            "    return cluster.replicas[site]._redo_log\n"
        )
        assert rules_of(lint(engine, source, scope="failure/x.py")) == [
            "no-cross-site-oracle"
        ]

    def test_positive_crash_manager_ground_truth(self, engine):
        source = (
            "class Governor:\n"
            "    def elect(self, site):\n"
            "        return self.crash_manager.is_up(site)\n"
        )
        findings = lint(engine, source, scope="failure/x.py")
        assert rules_of(findings) == ["no-cross-site-oracle"]
        assert "ground truth" in findings[0].message

    def test_negative_network_layer_is_exempt(self, engine):
        findings = engine.lint_source(
            self.POSITIVE, path="network/x.py", scope_path="network/x.py"
        )
        assert findings == []


class TestKernelHotPathAllocation:
    POSITIVE = (
        "def run(queue):\n"
        "    # repro: hot-path\n"
        "    while queue:\n"
        "        event = queue.pop()\n"
        "        label = f'{event}'\n"
    )
    NEGATIVE = (
        "def run(queue):\n"
        "    # repro: hot-path\n"
        "    while queue:\n"
        "        event = queue.pop()\n"
        "        event.callback()\n"
    )

    def test_positive_fstring_in_marked_loop(self, engine):
        findings = lint(engine, self.POSITIVE, scope="simulation/kernel.py")
        assert rules_of(findings) == ["kernel-hot-path-allocation"]
        assert "f-string" in findings[0].message

    def test_negative_lean_loop(self, engine):
        assert lint(engine, self.NEGATIVE, scope="simulation/kernel.py") == []

    def test_positive_comprehension_and_dict_call(self, engine):
        source = (
            "def run(items):\n"
            "    # repro: hot-path\n"
            "    for i in items:\n"
            "        a = [x for x in i]\n"
            "        b = dict()\n"
        )
        findings = lint(engine, source, scope="simulation/x.py")
        assert rules_of(findings) == ["kernel-hot-path-allocation"] * 2

    def test_unmarked_loop_is_not_checked(self, engine):
        source = (
            "def run(items):\n"
            "    for i in items:\n"
            "        a = [x for x in i]\n"
        )
        assert lint(engine, source, scope="simulation/x.py") == []

    def test_marker_without_loop_is_reported(self, engine):
        source = "# repro: hot-path\nx = 1\n"
        findings = lint(engine, source, scope="simulation/x.py")
        assert rules_of(findings) == ["kernel-hot-path-allocation"]
        assert "no loop" in findings[0].message


# --------------------------------------------------------------- suppressions
class TestSuppressionPragmas:
    def test_pragma_with_reason_suppresses(self, engine):
        source = (
            "import time\n"
            "stamp = time.time()  # repro: allow[no-wallclock] -- provenance stamp\n"
        )
        assert lint(engine, source) == []

    def test_pragma_missing_reason_is_a_finding(self, engine):
        source = "import time\nstamp = time.time()  # repro: allow[no-wallclock]\n"
        findings = lint(engine, source)
        assert sorted(rules_of(findings)) == ["bad-suppression", "no-wallclock"]

    def test_pragma_with_unknown_rule_is_a_finding(self, engine):
        source = "x = 1  # repro: allow[no-such-rule] -- because\n"
        findings = lint(engine, source)
        assert rules_of(findings) == ["bad-suppression"]
        assert "no-such-rule" in findings[0].message

    def test_unused_pragma_is_a_finding(self, engine):
        source = "x = 1  # repro: allow[no-wallclock] -- just in case\n"
        findings = lint(engine, source)
        assert rules_of(findings) == ["unused-suppression"]

    def test_standalone_pragma_applies_to_next_code_line(self, engine):
        source = (
            "import time\n"
            "# repro: allow[no-wallclock] -- provenance stamp\n"
            "stamp = time.time()\n"
        )
        assert lint(engine, source) == []

    def test_pragma_only_silences_named_rule(self, engine):
        source = (
            "import time, random\n"
            "x = (time.time(), random.random())  "
            "# repro: allow[no-wallclock] -- stamp\n"
        )
        findings = lint(engine, source)
        assert rules_of(findings) == ["seeded-randomness-only"]

    def test_meta_rules_cannot_be_suppressed(self, engine):
        source = "x = 1  # repro: allow[unused-suppression] -- gaming the linter\n"
        findings = lint(engine, source)
        assert rules_of(findings) == ["bad-suppression"]

    def test_malformed_pragma_is_a_finding(self, engine):
        source = "x = 1  # repro: allow no-wallclock -- forgot brackets\n"
        findings = lint(engine, source)
        assert rules_of(findings) == ["bad-suppression"]
        assert "malformed" in findings[0].message


# ------------------------------------------------------------------ CLI layer
def write_tree(root: Path, files):
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")


CLEAN_FILE = "def now(kernel):\n    return kernel.now()\n"
DIRTY_FILE = "import time\n\nstamp = time.time()\n"


class TestLintCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        write_tree(tmp_path, {"pkg/clean.py": CLEAN_FILE})
        assert lint_cli.main([str(tmp_path / "pkg")]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        write_tree(tmp_path, {"pkg/dirty.py": DIRTY_FILE})
        assert lint_cli.main([str(tmp_path / "pkg")]) == 1
        out = capsys.readouterr().out
        assert "no-wallclock" in out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert lint_cli.main([str(tmp_path / "absent")]) == 2

    def test_exit_two_on_syntax_error(self, tmp_path, capsys):
        write_tree(tmp_path, {"pkg/broken.py": "def f(:\n"})
        assert lint_cli.main([str(tmp_path / "pkg")]) == 2
        assert "syntax error" in capsys.readouterr().out

    def test_report_only_exits_zero_with_findings(self, tmp_path, capsys):
        write_tree(tmp_path, {"pkg/dirty.py": DIRTY_FILE})
        assert lint_cli.main([str(tmp_path / "pkg"), "--report-only"]) == 0

    def test_json_schema(self, tmp_path, capsys):
        write_tree(tmp_path, {"pkg/dirty.py": DIRTY_FILE})
        code = lint_cli.main([str(tmp_path / "pkg"), "--format", "json"])
        assert code == 1
        body = json.loads(capsys.readouterr().out)
        assert body["version"] == 1
        assert body["exit_code"] == 1
        assert body["files_scanned"] == 1
        assert body["counts_by_rule"] == {"no-wallclock": 1}
        assert set(body["rules"]) >= {
            "no-wallclock",
            "seeded-randomness-only",
            "no-unordered-iteration",
            "tracer-guard",
            "no-cross-site-oracle",
            "kernel-hot-path-allocation",
        }
        (finding,) = body["findings"]
        assert set(finding) == {"path", "line", "column", "rule", "message", "hint"}
        assert finding["line"] == 3
        assert finding["path"].endswith("dirty.py")

    def test_list_rules(self, capsys):
        assert lint_cli.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "no-wallclock:" in out
        assert "kernel-hot-path-allocation:" in out

    def test_record_db_files_debt_in_results_store(self, tmp_path, capsys):
        from repro.observability.store import ResultsStore

        write_tree(tmp_path, {"pkg/dirty.py": DIRTY_FILE})
        db = tmp_path / "results.sqlite"
        code = lint_cli.main(
            [
                str(tmp_path / "pkg"),
                "--report-only",
                "--record-db",
                str(db),
                "--record-name",
                "lint_debt_tests",
            ]
        )
        assert code == 0
        store = ResultsStore(str(db))
        try:
            (run,) = store.runs("lint_debt_tests")
            assert run.metrics["findings_total"] == 1.0
            assert run.metrics["findings_no_wallclock"] == 1.0
            assert run.metrics["files_scanned"] == 1.0
            assert run.metrics["lines_scanned"] == len(DIRTY_FILE.splitlines())
        finally:
            store.close()


class TestBaseline:
    def test_round_trip_grandfathers_old_findings_only(self, tmp_path, engine):
        write_tree(tmp_path, {"pkg/dirty.py": DIRTY_FILE})
        report = engine.lint_paths([tmp_path / "pkg"])
        assert len(report.findings) == 1
        baseline_path = tmp_path / "baseline.json"
        write_baseline(report.findings, str(baseline_path))
        baseline = load_baseline(str(baseline_path))
        fresh, matched = filter_baselined(report.findings, baseline)
        assert fresh == [] and matched == 1
        # A new finding on a different line is NOT grandfathered.
        write_tree(
            tmp_path,
            {"pkg/dirty.py": DIRTY_FILE + "import random\nx = random.random()\n"},
        )
        report = engine.lint_paths([tmp_path / "pkg"])
        fresh, matched = filter_baselined(report.findings, baseline)
        assert matched == 1
        assert rules_of(fresh) == ["seeded-randomness-only"]

    def test_cli_baseline_flag(self, tmp_path, capsys):
        write_tree(tmp_path, {"pkg/dirty.py": DIRTY_FILE})
        baseline_path = tmp_path / "baseline.json"
        assert (
            lint_cli.main(
                [str(tmp_path / "pkg"), "--write-baseline", str(baseline_path)]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            lint_cli.main([str(tmp_path / "pkg"), "--baseline", str(baseline_path)])
            == 0
        )
        assert "1 baselined" in capsys.readouterr().out

    def test_bad_baseline_is_exit_two(self, tmp_path, capsys):
        write_tree(tmp_path, {"pkg/dirty.py": DIRTY_FILE})
        bad = tmp_path / "bad.json"
        bad.write_text("{\"version\": 99}", encoding="utf-8")
        assert lint_cli.main([str(tmp_path / "pkg"), "--baseline", str(bad)]) == 2


# -------------------------------------------------- the repo's own invariants
class TestRepoIsClean:
    def test_src_repro_lints_clean(self):
        repo_root = Path(__file__).resolve().parent.parent
        engine = LintEngine(default_rules())
        report = engine.lint_paths([repo_root / "src" / "repro"])
        assert report.errors == []
        assert report.findings == [], "\n".join(
            finding.render() for finding in report.findings
        )

    def test_module_cli_entrypoint(self):
        repo_root = Path(__file__).resolve().parent.parent
        completed = subprocess.run(
            [sys.executable, "-m", "tools.lint", "src/repro", "--format", "json"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        body = json.loads(completed.stdout)
        assert body["findings"] == []
