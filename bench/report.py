"""Render a measured set as text, and compare two sets of the same code."""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from .spec import Metric, declared_for
from .suite import value_of


def _number(value: float) -> str:
    if value == 0.0 or 0.01 <= abs(value) < 1e6:
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return f"{value:.4g}"


def _bound(metric: Metric) -> str:
    if metric.abs_bound is not None:
        return f"+{metric.abs_bound:g} abs"
    return "-" if metric.bound is None else f"{100 * metric.bound:g}%"


def render_workload(results: Dict[str, Any], workload: str) -> str:
    """Every declared metric of one workload: name, value, unit, clock, direction, bound."""
    result = results["workloads"][workload]
    lines = [
        f"== {workload}  seed {result['seed']}  plain reps {result['reps']}  "
        f"state_digest {result['state_digest']}",
        f"   {'metric':<46}{'value':>14} {'unit':<7}{'clock':<8}{'better':<7}{'bound':<11}"
        "min .. max (n)",
    ]
    for metric in declared_for(workload):
        value = value_of(results, workload, metric.name)
        if value is None:
            lines.append(f"   {metric.name:<46}{'(not measured)':>14}")
            continue
        sample = result["values"].get(metric.name, {})
        spread = ""
        if "min" in sample:
            spread = f"{_number(sample['min'])} .. {_number(sample['max'])} ({sample['n']})"
        elif "n" in sample:
            spread = f"({sample['n']})"
        lines.append(
            f"   {metric.name:<46}{_number(value):>14} {metric.unit:<7}{metric.clock:<8}"
            f"{metric.better:<7}{_bound(metric):<11}{spread}")
    commit_n = result["values"]["commit_samples"]["value"]
    lines.append(f"   samples: commit latency n={commit_n:g}"
                 + (f", query latency n={result['values']['query_samples']['value']:g}"
                    if "query_samples" in result["values"] else ""))
    traced = result.get("traced")
    if traced:
        overhead = ", ".join(
            f"{mode} {ratio:.2f}x" for mode, ratio in traced["run_wall_vs_untraced"].items())
        lines.append(f"   traced reps: run wall traced / untraced: {overhead}; cProfile "
                     f"attributed {100 * traced['profiler_attributed_share']:.1f}% of its run wall")
        spans = sorted(traced["label_spans"].items(), key=lambda item: -item[1]["host_s"])
        lines.append("   label spans (events, host s): " + "; ".join(
            f"{label} {row['events']} {row['host_s']:.3f}" for label, row in spans[:8]))
    for failure in result["failures"]:
        lines.append(f"   FAILED {failure}")
    return "\n".join(lines)


def render_set(results: Dict[str, Any]) -> str:
    env = results["environment"]
    header = (
        f"bench: rev {env['git_rev']}  python {env['python']}  nproc {env['nproc']}  "
        f"cpu {env['cpu_model']}\n       seed {env['seed']}  PYTHONHASHSEED {env['PYTHONHASHSEED']}"
        f"  gc {env['gc']}" + ("  QUICK SIZES" if env["quick"] else ""))
    return "\n\n".join([header] + [render_workload(results, w) for w in results["workloads"]])


def agree(metric: Metric, first: float, second: float) -> bool:
    """Whether two measurements of one commit agree within the metric's bound."""
    if metric.exact:
        return first == second
    if metric.abs_bound is not None:
        return abs(second - first) <= metric.abs_bound
    if metric.bound is None:
        return True
    return abs(second - first) <= metric.bound * abs(first)


def compare_sets(first: Dict[str, Any], second: Dict[str, Any]) -> Tuple[str, List[str]]:
    """Table of both sets with their ratio, and the disagreements.

    Host metrics must agree within their declared bound, virtual metrics,
    counts and the state digest exactly; host metrics without a bound (the
    per-layer ones) are shown for information.
    """
    lines: List[str] = []
    disagreements: List[str] = []
    for workload in first["workloads"]:
        lines.append(f"== {workload}")
        lines.append(f"   {'metric':<46}{'set 1':>14}{'set 2':>14}{'2 / 1':>9}  verdict")
        digests = [s["workloads"][workload]["state_digest"] for s in (first, second)]
        if digests[0] != digests[1]:
            disagreements.append(f"{workload}: state_digest differs")
            lines.append(f"   state_digest {digests[0][:16]} != {digests[1][:16]}  DIFFERS")
        for metric in declared_for(workload):
            a = value_of(first, workload, metric.name)
            b = value_of(second, workload, metric.name)
            if a is None or b is None:
                continue
            ratio = f"{b / a:.4f}" if a else "-"
            agreed = agree(metric, a, b)
            if metric.exact:
                verdict = "identical" if agreed else "DIFFERS"
            elif metric.bound is None and metric.abs_bound is None:
                verdict = "(no bound)"
            else:
                verdict = f"{'within' if agreed else 'OUTSIDE'} {_bound(metric)}"
            if not agreed:
                disagreements.append(f"{workload}: {metric.name} {_number(a)} vs {_number(b)}")
            lines.append(f"   {metric.name:<46}{_number(a):>14}{_number(b):>14}{ratio:>9}  {verdict}")
    return "\n".join(lines), disagreements

