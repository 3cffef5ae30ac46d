"""One repetition of one cell, in a fresh interpreter.

Launched by :mod:`bench.suite` as ``python -m bench.child``; prints one JSON
object on its last line.  ``--t0`` is the parent's monotonic clock just
before the launch, so ``setup_s`` includes interpreter start and imports.

Modes: ``plain`` runs and times all four phases (the only mode that feeds
end-to-end numbers); ``digest`` stops after the run phase and reports the
state digest; ``profile``, ``spans`` and ``tracer`` are the traced reps (run
phase under cProfile, under a kernel trace hook, with a TransactionTracer).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from typing import Any, Callable, Dict, List, Optional

MODES = ("plain", "digest", "profile", "spans", "tracer")


def _timed(phase: Callable[[], Any]) -> tuple:
    gc.collect()
    started = time.perf_counter()
    result = phase()
    return time.perf_counter() - started, result


def _profile_run(cell: Any) -> Dict[str, Any]:
    """Run phase under cProfile; self-time bucketed by ``src/repro/<package>/``."""
    import cProfile
    import pstats

    from .spec import LEDGER_LAYERS

    profiler = cProfile.Profile()
    gc.collect()
    started = time.perf_counter()
    profiler.enable()
    cell.run()
    profiler.disable()
    wall = time.perf_counter() - started
    self_s = {layer: 0.0 for layer in LEDGER_LAYERS}
    self_s["host.other"] = 0.0
    marker = "/src/repro/"
    for (filename, _line, _name), row in pstats.Stats(profiler).stats.items():  # type: ignore[attr-defined]
        layer = "host.other"
        at = filename.find(marker)
        if at >= 0:
            package = filename[at + len(marker):].split("/", 1)[0]
            if package in self_s:
                layer = package
        self_s[layer] += row[2]
    return {"run_s": wall, "self_s": self_s}


def _span_run(cell: Any, spans_out: Optional[str]) -> Dict[str, Any]:
    """Run phase under a kernel trace hook recording one span per event.

    The hook fires before each event's callback, so an event's span runs
    from its hook to the next one.  Spans stay in memory until the run ends.
    """
    kernel = cell.cluster.kernel
    labels: List[str] = []
    starts: List[float] = []
    due: List[float] = []
    peak = [0]
    clock = time.perf_counter

    def hook(event: Any) -> None:
        labels.append(event.label)
        due.append(kernel.now() - event.time)
        pending = kernel.pending_events
        if pending > peak[0]:
            peak[0] = pending
        starts.append(clock())

    kernel.add_trace_hook(hook)
    gc.collect()
    started = clock()
    cell.run()
    ended = clock()
    by_prefix: Dict[str, List[float]] = {}
    lateness = 0.0
    for index, label in enumerate(labels):
        prefix = label.split(":", 1)[0] or "(unlabelled)"
        end = starts[index + 1] if index + 1 < len(starts) else ended
        row = by_prefix.setdefault(prefix, [0, 0.0])
        row[0] += 1
        row[1] += end - starts[index]
        if prefix in ("workload", "sharded-workload", "open-loop"):
            lateness = max(lateness, due[index])
    if spans_out:
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump({"columns": ["label", "start_s", "end_s"], "spans": [
                [labels[i].split(":", 1)[0], starts[i] - started,
                 (starts[i + 1] if i + 1 < len(starts) else ended) - started]
                for i in range(len(labels))
            ]}, handle)
    return {
        "run_s": ended - started,
        "label_spans": {k: {"events": v[0], "host_s": v[1]} for k, v in sorted(by_prefix.items())},
        "peak_pending_events": peak[0],
        "offer_lateness_ms": lateness * 1000.0,
        "heartbeat_ticks": by_prefix.get("fd-tick", [0])[0],
        "virtual_s": kernel.now(),
    }


def run_child(args: argparse.Namespace) -> Dict[str, Any]:
    from .cells import build_cell  # imports repro: charged to setup

    tracer = None
    if args.mode == "tracer":
        from repro.observability.trace import TransactionTracer

        tracer = TransactionTracer()
    cell = build_cell(args.workload, args.seed, quick=args.quick, tracer=tracer, rate=args.rate)
    setup_s = time.perf_counter() - args.t0
    out: Dict[str, Any] = {"mode": args.mode, "workload": args.workload, "seed": args.seed,
                           "setup_s": setup_s}
    if args.mode == "profile":
        out.update(_profile_run(cell))
    elif args.mode == "spans":
        out.update(_span_run(cell, args.spans_out))
    else:
        out["run_s"], _ = _timed(cell.run)
    out["commits"] = cell.commits()
    out["events"] = cell.cluster.kernel.events_executed
    if args.mode == "tracer":
        out["tracer_events"] = len(tracer)
    if args.mode in ("plain", "digest"):
        out["state_digest"] = cell.state_digest()
    if args.mode == "plain":
        out["report_s"], derived = _timed(cell.report)
        out["verify_s"], checks = _timed(cell.verify)
        out["checks"] = checks
        out["virtual"] = cell.end_to_end(derived)
        out["counts"] = cell.layer_counts(derived)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, default="plain")
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--rate", type=float, default=None)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    if args.t0 is None:
        args.t0 = time.perf_counter()
    print(json.dumps(run_child(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
