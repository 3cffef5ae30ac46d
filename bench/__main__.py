"""Command line of the benchmark.

``python -m bench run --seed 11``    one full set: every metric by name and unit,
                                     correctness gated (exit 2 names workload and check)
``python -m bench check --seed 11``  two sets back to back on the same code; exit 1
                                     unless they agree within the declared bounds
``python -m bench measure ...``      one driver run (the ``command`` of BENCHMARK.json)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from . import SRC
from .report import compare_sets, render_set
from .spec import DRIVER_END_TO_END, WORKLOADS, metrics_by_name
from .suite import DEFAULT_REPS, failures_of, measure_workload, run_probes, run_set, value_of

EXIT_DISAGREE = 1
EXIT_INVARIANT = 2
EXIT_NO_PROGRAM = 3


def _report_failures(results: Dict[str, Any]) -> int:
    failures = failures_of(results)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return EXIT_INVARIANT if failures else 0


def command_run(args: argparse.Namespace) -> int:
    spans_dir = os.path.dirname(os.path.abspath(args.out)) if args.out else None
    if spans_dir:
        os.makedirs(spans_dir, exist_ok=True)
    results = run_set(args.seed, workloads=args.workload, quick=args.quick,
                      reps=args.reps, spans_dir=spans_dir)
    print(render_set(results))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
        print(f"\nwrote {args.out}")
    return _report_failures(results)


def command_check(args: argparse.Namespace) -> int:
    sets = [run_set(args.seed, workloads=args.workload, quick=args.quick, reps=args.reps)
            for _ in range(2)]
    table, disagreements = compare_sets(*sets)
    print(table)
    status = max(_report_failures(results) for results in sets)
    for line in disagreements:
        print(f"DISAGREE {line}", file=sys.stderr)
    if status:
        return status
    if disagreements:
        return EXIT_DISAGREE
    print("\ncheck passed: host metrics within bounds; virtual metrics, counts and "
          "state digests identical")
    return 0


def command_measure(args: argparse.Namespace) -> int:
    """One driver run: the last stdout line is the result object.

    ``--trace 0`` emits the metrics ``BENCHMARK.json`` lists as ``end_to_end``,
    ``--trace 1`` those it lists as ``per_layer`` (every other declared metric).
    """
    traced = args.trace == 1
    result = measure_workload(
        args.workload, args.seed, traced=traced,
        reps=1 if traced else None, seconds=None if traced else args.seconds)
    results = {"workloads": {args.workload: result},
               "probes": run_probes(args.seed, quick=False) if traced else {}}
    metrics = {}
    for metric in metrics_by_name().values():
        if (metric.name in DRIVER_END_TO_END) == traced:
            continue
        # A per-layer metric that does not exist on this workload reads 0.
        value = value_of(results, args.workload, metric.name)
        metrics[metric.name] = {"value": 0.0 if value is None else value, "unit": metric.unit}
    for failure in result["failures"]:
        print(f"FAILED {args.workload}: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not result["failures"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("run", command_run), ("check", command_check)):
        sub = commands.add_parser(name)
        sub.add_argument("--seed", type=int, default=11)
        sub.add_argument("--quick", action="store_true", help="smoke sizes (seconds, not minutes)")
        sub.add_argument("--workload", action="append", choices=list(WORKLOADS),
                         help="measure only this workload (repeatable)")
        sub.add_argument("--reps", type=int, default=DEFAULT_REPS, help="plain reps per workload")
        sub.set_defaults(handler=handler)
        if name == "run":
            sub.add_argument("--out", metavar="PATH",
                             help="also write the set as JSON, e.g. bench/out/<rev>.json")
    measure = commands.add_parser("measure")
    measure.add_argument("--workload", required=True, choices=list(WORKLOADS))
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), required=True)
    measure.set_defaults(handler=command_measure)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return EXIT_NO_PROGRAM
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
