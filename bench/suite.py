"""Parent side: launch one child per repetition, aggregate, gate on correctness.

Children run one at a time (the reference box has two cores; the second is
left to the OS), each in a fresh interpreter with ``PYTHONHASHSEED=0``.
Plain rep ``i`` of a measurement runs the cell on its own sub-seed
(:func:`sub_seed`), because how much work a cell is depends on its seed
(hot-class share, realised arrivals): folding the reps (:func:`summarise`)
evens that out, and the result is still an exact function of ``(seed, reps)``
for the virtual-clock metrics and the counts.
One more rep repeats sub-seed 0 under ``PYTHONHASHSEED=1`` and must reach the
same ``state_digest``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from . import ROOT, SRC
from .spec import (
    LIMIT_COMMIT_P99_MS,
    LIMIT_FAILED_SHARE,
    LIMIT_IN_FLIGHT_GROWTH,
    MEASURED_RATE,
    RATE_LADDER,
    WORKLOADS,
    Metric,
    metrics_by_name,
)

#: Plain reps per workload in ``python -m bench run``.
DEFAULT_REPS = 5
#: Fewest plain reps a time-budgeted measurement takes.
MIN_REPS = 3
#: A child that runs longer than this is killed (the driver allows 180 s a run).
CHILD_TIMEOUT_S = 170.0

GC_POLICY = "enabled; gc.collect() before each timed phase"


def sub_seed(seed: int, rep: int) -> int:
    """Cluster seed of plain rep ``rep``: distinct for every (seed, rep) pair."""
    return seed * 1000 + rep


class ChildFailed(RuntimeError):
    """A child process exited non-zero or printed no result."""


def launch(module: str, arguments: List[str], *, hashseed: str = "0") -> Dict[str, Any]:
    """Run ``python -m <module>`` in a fresh interpreter; return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", module, *arguments]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(
            f"{' '.join(command)} exited {done.returncode}:\n{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_rep(workload: str, seed: int, mode: str, *, quick: bool, hashseed: str = "0",
            rate: Optional[float] = None, spans_out: Optional[str] = None) -> Dict[str, Any]:
    arguments = ["--workload", workload, "--seed", str(seed), "--mode", mode,
                 "--t0", repr(time.perf_counter())]
    if quick:
        arguments.append("--quick")
    if rate is not None:
        arguments += ["--rate", repr(rate)]
    if spans_out is not None:
        arguments += ["--spans-out", spans_out]
    return launch("bench.child", arguments, hashseed=hashseed)


# ---------------------------------------------------------------------------
# Aggregation (pure functions; covered by bench/tests)
# ---------------------------------------------------------------------------


def host_values(rep: Dict[str, Any]) -> Dict[str, float]:
    """The host-clock metrics one plain rep yields."""
    commits = rep["commits"]
    cell_s = rep["setup_s"] + rep["run_s"] + rep["report_s"] + rep["verify_s"]
    return {
        "setup_s": rep["setup_s"],
        "commits_per_s": commits / rep["run_s"],
        "cell_commits_per_s": commits / cell_s,
        "peak_rss_mb": rep["peak_rss_mb"],
        "simulation.events_per_s": rep["events"] / rep["run_s"],
        "verification.check_s": rep["verify_s"],
        "verification.check_us_per_commit": 1e6 * rep["verify_s"] / commits,
        "observability.derive_s": rep["report_s"],
    }


def summarise(metric: Optional[Metric], samples: List[float]) -> Dict[str, Any]:
    """Fold one metric's per-rep samples; min, max, count and raw values kept.

    Virtual-clock metrics and counts take the median over the reps' sub-seeds.
    Host-clock metrics take the *best* rep (highest rate, shortest time):
    other tenants of the machine only ever slow a rep down, in bursts that
    last seconds, so the best rep is the least disturbed measurement, where
    the median moves with every burst.
    """
    if metric is not None and metric.clock == "host":
        value = max(samples) if metric.better == "higher" else min(samples)
    else:
        value = statistics.median(samples)
    return {"value": value, "min": min(samples), "max": max(samples),
            "n": len(samples), "samples": samples}


def rep_failures(rep: Dict[str, Any], label: str = "") -> List[str]:
    """One line per failed invariant of a plain rep."""
    return [
        f"{label}{check}: {violations[0]}"
        for check, violations in rep["checks"].items()
        if violations
    ]


def aggregate(reps: List[Dict[str, Any]], digest_rep: Dict[str, Any]
              ) -> Tuple[Dict[str, Dict[str, Any]], List[str]]:
    """Fold plain reps plus the other-hash-seed rep into metric values and failures.

    ``digest_rep`` ran the first rep's sub-seed under another PYTHONHASHSEED.
    """
    per_rep = [{**host_values(rep), **rep["virtual"], **rep["counts"]} for rep in reps]
    declared = metrics_by_name()
    values = {
        name: summarise(declared.get(name), [row[name] for row in per_rep if name in row])
        for name in per_rep[0]
    }
    stable = digest_rep["state_digest"] == reps[0]["state_digest"]
    values["state_digest_stable"] = {"value": 1.0 if stable else 0.0, "n": 2}
    failures = [line for rep in reps for line in rep_failures(rep, f"seed {rep['seed']}: ")]
    if not stable:
        failures.append(
            f"state_digest: seed {reps[0]['seed']} reached another state under "
            "PYTHONHASHSEED=1 than under PYTHONHASHSEED=0")
    return values, failures


def rung_within_limit(virtual: Dict[str, float]) -> bool:
    """Whether one offered-rate rung meets the latency, failure and backlog limits."""
    return (
        virtual["commit_p99_ms"] <= LIMIT_COMMIT_P99_MS
        and virtual["failed_share"] <= LIMIT_FAILED_SHARE
        and virtual["in_flight_second_half"]
        <= LIMIT_IN_FLIGHT_GROWTH * virtual["in_flight_first_half"]
    )


def max_rate_within_limit(rungs: Dict[float, Dict[str, float]]) -> float:
    """Highest ladder rate that meets the limits (0 when none does)."""
    return max([rate for rate, virtual in rungs.items() if rung_within_limit(virtual)],
               default=0.0)


def ledger(profile_rep: Dict[str, Any]) -> Tuple[Dict[str, float], float]:
    """Self-time per commit by layer, and the share of the run wall cProfile attributed.

    What the profiler attributes to no frame (its own bookkeeping on every
    call and return) gets a row of its own, ``host.profiler``, so the column
    sums to the traced run-phase wall per commit.
    """
    commits = profile_rep["commits"]
    self_s = dict(profile_rep["self_s"])
    attributed = sum(self_s.values())
    self_s["host.profiler"] = profile_rep["run_s"] - attributed
    rows = {
        (f"{layer}_self_us_per_commit" if layer.startswith("host.")
         else f"{layer}.self_us_per_commit"): 1e6 * seconds / commits
        for layer, seconds in self_s.items()
    }
    return rows, attributed / profile_rep["run_s"]


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure_workload(workload: str, seed: int, *, quick: bool = False,
                     reps: Optional[int] = None, seconds: Optional[float] = None,
                     traced: bool = True, spans_out: Optional[str] = None) -> Dict[str, Any]:
    """Measure one workload.

    ``reps`` fixes the number of plain reps; with ``seconds`` they repeat
    until that much host time has passed (and at least ``MIN_REPS`` ran).
    ``traced`` adds the three traced reps and, on ``sharded_open_loop``, the
    other ladder rungs, all on the first rep's sub-seed.
    """
    started = time.perf_counter()
    plain: List[Dict[str, Any]] = []
    while len(plain) < (MIN_REPS if reps is None else reps) or (
            seconds is not None and time.perf_counter() - started < seconds):
        plain.append(run_rep(workload, sub_seed(seed, len(plain)), "plain", quick=quick))
    first_seed = sub_seed(seed, 0)
    digest_rep = run_rep(workload, first_seed, "digest", quick=quick, hashseed="1")
    values, failures = aggregate(plain, digest_rep)
    offered = sum(rep["virtual"]["offered"] for rep in plain)
    result: Dict[str, Any] = {
        "workload": workload, "seed": seed, "reps": len(plain),
        "state_digest": hashlib.sha256(
            "".join(rep["state_digest"] for rep in plain).encode()).hexdigest(),
        "values": values, "failures": failures,
        "attempted": int(offered),
        "failed": int(offered - sum(rep["virtual"]["completed"] for rep in plain)),
    }
    if traced:
        result["traced"] = _traced_reps(
            workload, first_seed, quick, plain, values, failures, spans_out)
        if workload == "sharded_open_loop":
            _ladder(first_seed, quick, plain[0]["virtual"], values, failures)
    return result


def _traced_reps(workload: str, seed: int, quick: bool, plain: List[Dict[str, Any]],
                 values: Dict[str, Dict[str, Any]], failures: List[str],
                 spans_out: Optional[str]) -> Dict[str, Any]:
    """Profile, span and tracer reps; they feed per-layer metrics only."""
    untraced_run_s = min(rep["run_s"] for rep in plain)
    profile = run_rep(workload, seed, "profile", quick=quick)
    spans = run_rep(workload, seed, "spans", quick=quick, spans_out=spans_out)
    tracer = run_rep(workload, seed, "tracer", quick=quick)
    rows, ledger_share = ledger(profile)
    single = {
        **rows,
        "simulation.peak_pending_events": float(spans["peak_pending_events"]),
        "workloads.offer_lateness_ms": spans["offer_lateness_ms"],
        "observability.tracer_overhead_pct":
            100.0 * (tracer["run_s"] / untraced_run_s - 1.0),
        "observability.tracer_events_per_commit": tracer["tracer_events"] / tracer["commits"],
    }
    if workload == "failover_recovery":
        single["failure.heartbeats_per_virtual_s"] = (
            spans["heartbeat_ticks"] / spans["virtual_s"])
    for name, value in single.items():
        values[name] = {"value": value, "n": 1}
    if spans["offer_lateness_ms"] != 0.0:
        failures.append(
            f"offer_lateness: a planned offer fired {spans['offer_lateness_ms']} ms late")
    return {
        "profiler_attributed_share": ledger_share,
        "run_wall_vs_untraced": {
            mode: rep["run_s"] / untraced_run_s
            for mode, rep in (("profile", profile), ("spans", spans), ("tracer", tracer))
        },
        "label_spans": spans["label_spans"],
    }


def _ladder(seed: int, quick: bool, measured: Dict[str, float],
            values: Dict[str, Dict[str, Any]], failures: List[str]) -> None:
    """Run the other offered-rate rungs once each; record the rate metrics."""
    rungs = {MEASURED_RATE: measured}
    for rate in RATE_LADDER:
        if rate == MEASURED_RATE:
            continue
        rep = run_rep("sharded_open_loop", seed, "plain", quick=quick, rate=rate)
        rungs[rate] = rep["virtual"]
        failures.extend(rep_failures(rep, f"rate {rate:g}: "))
    values["max_rate_within_limit_tps"] = {"value": max_rate_within_limit(rungs), "n": 1}
    values["core.shed_share_r7000"] = {"value": rungs[max(RATE_LADDER)]["shed_share"], "n": 1}


def environment(seed: int, quick: bool) -> Dict[str, Any]:
    """Where and how the numbers were taken."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rev = ""
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "git_rev": rev or "unknown", "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu_model": cpu or "unknown",
        "PYTHONHASHSEED": "0 (one digest rep per workload under 1)",
        "sub_seeds": "plain rep i runs cluster seed seed*1000+i",
        "gc": GC_POLICY, "seed": seed, "quick": quick,
    }


def run_set(seed: int, *, workloads: Optional[List[str]] = None, quick: bool = False,
            reps: int = DEFAULT_REPS, spans_dir: Optional[str] = None) -> Dict[str, Any]:
    """One full set: every workload with traced reps, plus the probes once."""
    names = list(workloads or WORKLOADS)
    results: Dict[str, Any] = {"claim": None, "environment": environment(seed, quick),
                               "workloads": {}}
    for name in names:
        spans_out = os.path.join(spans_dir, f"spans-{name}.json") if spans_dir else None
        results["workloads"][name] = measure_workload(
            name, seed, quick=quick, reps=reps, spans_out=spans_out)
    results["probes"] = run_probes(seed, quick)
    return results


def run_probes(seed: int, quick: bool) -> Dict[str, float]:
    arguments = ["--seed", str(seed)] + (["--quick"] if quick else [])
    return launch("bench.probes", arguments)


def failures_of(results: Dict[str, Any]) -> List[str]:
    """Every failed invariant of a set, prefixed with its workload."""
    return [f"{name}: {line}" for name, result in results["workloads"].items()
            for line in result["failures"]]


def value_of(results: Dict[str, Any], workload: str, metric: str) -> Optional[float]:
    """A metric's value for one workload of a set (probes apply to every workload)."""
    sample = results["workloads"][workload]["values"].get(metric)
    if sample is not None:
        return sample["value"]
    return results.get("probes", {}).get(metric)
