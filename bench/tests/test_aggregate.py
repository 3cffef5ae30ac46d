"""The aggregator and the gates, on fabricated reps (no simulation runs)."""

import pytest

from bench import __main__ as cli
from bench.report import agree, compare_sets
from bench.spec import metrics_by_name
from bench.suite import aggregate, failures_of, ledger, max_rate_within_limit


def plain_rep(seed=11000, run_s=0.5, digest="d0", checks=None, p99=2.5):
    return {
        "seed": seed, "setup_s": 0.2, "run_s": run_s, "report_s": 0.1, "verify_s": 1.2,
        "commits": 1000, "events": 13000, "peak_rss_mb": 40.0, "state_digest": digest,
        "checks": checks or {"one_copy_serializability": [], "liveness": []},
        "virtual": {"commit_p50_ms": 1.5, "commit_p99_ms": p99, "commit_samples": 1000.0,
                    "goodput_tps": 3900.0, "failed_share": 0.0, "offered": 1000.0,
                    "completed": 1000.0},
        "counts": {"simulation.events_per_commit": 13.0, "workloads.plan_s": 0.01},
    }


def test_host_metrics_take_the_best_rep_and_exact_ones_the_median():
    reps = [plain_rep(11000, 0.5, p99=2.5), plain_rep(11001, 0.4, "d1", p99=9.0),
            plain_rep(11002, 1.0, "d2", p99=3.0)]
    values, failures = aggregate(reps, {"state_digest": "d0"})
    assert failures == []
    assert values["commits_per_s"]["value"] == 2500.0
    assert (values["commits_per_s"]["min"], values["commits_per_s"]["max"]) == (1000.0, 2500.0)
    assert values["commits_per_s"]["n"] == 3
    assert values["cell_commits_per_s"]["value"] == 1000 / (0.2 + 0.4 + 0.1 + 1.2)
    assert values["verification.check_s"]["value"] == 1.2
    assert values["setup_s"]["value"] == 0.2
    assert values["commit_p99_ms"]["value"] == 3.0
    assert values["commit_p99_ms"]["samples"] == [2.5, 9.0, 3.0]
    assert values["workloads.plan_s"]["n"] == 3
    assert values["state_digest_stable"]["value"] == 1.0


def test_first_sub_seed_must_reach_the_same_state_under_another_hash_seed():
    values, failures = aggregate([plain_rep(), plain_rep(11001, digest="d1")],
                                 {"state_digest": "other"})
    assert values["state_digest_stable"]["value"] == 0.0
    assert len(failures) == 1 and failures[0].startswith("state_digest:")


def test_failed_invariant_names_sub_seed_and_check():
    broken = {"one_copy_serializability": ["class C1: commit order differs"], "liveness": []}
    _, failures = aggregate([plain_rep(), plain_rep(11001, checks=broken)],
                            {"state_digest": "d0"})
    assert failures == [
        "seed 11001: one_copy_serializability: class C1: commit order differs"]


def test_run_exits_2_and_names_workload_and_check(capsys):
    results = {"workloads": {"hot_conflict": {"failures": ["liveness: T7 never committed"]},
                             "flat_update": {"failures": []}}}
    assert failures_of(results) == ["hot_conflict: liveness: T7 never committed"]
    assert cli._report_failures(results) == cli.EXIT_INVARIANT
    assert "FAILED hot_conflict: liveness" in capsys.readouterr().err
    assert cli._report_failures({"workloads": {"flat_update": {"failures": []}}}) == 0


def rung(p99, failed=0.0, first=40.0, second=45.0):
    return {"commit_p99_ms": p99, "failed_share": failed, "in_flight_first_half": first,
            "in_flight_second_half": second}


def test_max_rate_needs_latency_failures_and_backlog_within_limits():
    assert max_rate_within_limit(
        {3000.0: rung(10.0), 5000.0: rung(37.0), 7000.0: rung(72.0, failed=0.16)}) == 5000.0
    assert max_rate_within_limit({3000.0: rung(10.0), 5000.0: rung(37.0, second=81.0)}) == 3000.0
    assert max_rate_within_limit({3000.0: rung(51.0)}) == 0.0


def test_ledger_column_sums_to_the_traced_run_wall():
    rep = {"commits": 100, "run_s": 2.0,
           "self_s": {"core": 0.6, "database": 0.5, "host.other": 0.7}}
    rows, attributed = ledger(rep)
    assert attributed == pytest.approx(0.9)
    assert sum(rows.values()) == pytest.approx(1e6 * 2.0 / 100)
    assert rows["host.other_self_us_per_commit"] == pytest.approx(1e6 * 0.7 / 100)
    assert rows["host.profiler_self_us_per_commit"] == pytest.approx(1e6 * 0.2 / 100)


def test_agreement_rules():
    metrics = metrics_by_name()
    assert agree(metrics["commits_per_s"], 1000.0, 1249.0)
    assert not agree(metrics["commits_per_s"], 1000.0, 1251.0)
    assert not agree(metrics["commits_per_s"], 1000.0, 749.0)
    assert agree(metrics["peak_rss_mb"], 40.0, 43.9)
    assert not agree(metrics["peak_rss_mb"], 40.0, 44.1)
    assert agree(metrics["commit_p99_ms"], 2.5, 2.5)
    assert not agree(metrics["commit_p99_ms"], 2.5, 2.5000001)
    assert agree(metrics["simulation.events_per_s"], 1.0, 9.0)  # host, no bound


def measured_set(commits_per_s, p50, digest="d0"):
    return {"probes": {}, "workloads": {"flat_update": {"state_digest": digest, "values": {
        "commits_per_s": {"value": commits_per_s}, "commit_p50_ms": {"value": p50}}}}}


def test_compare_sets_reports_host_and_virtual_disagreements():
    _, none = compare_sets(measured_set(1000.0, 1.5), measured_set(1050.0, 1.5))
    assert none == []
    table, found = compare_sets(measured_set(1000.0, 1.5), measured_set(1300.0, 1.6, "d1"))
    assert [line.split(":")[1].split()[0] for line in found] == [
        "state_digest", "commits_per_s", "commit_p50_ms"]
    assert "OUTSIDE 25%" in table and "DIFFERS" in table
