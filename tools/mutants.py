"""Planted defects, and the tier-1 test that kills each one.

Run from the repository root::

    python -m tools.mutants

Each entry of :data:`MUTANTS` plants one defect: it replaces one exact piece
of source text in one file of ``src/repro``.  For each entry the tool copies
the checkout to a temporary directory, plants the defect there and runs
tier-1 (``python -m pytest -x -q`` with the :data:`TIER1_MARKERS` selection
and ``PYTHONHASHSEED=0``) without the :data:`STRUCTURAL` test files, because a
check that flags a defect by its shape is not a kill.  It prints the test that killed the defect, or
``survived``, and exits 1 when an outcome differs from what the entry
expects:

* ``killed``: a tier-1 test fails;
* ``survives: <reason>``: tier-1 passes, and the reason names what catches
  the defect instead (a lint rule kept for it);
* ``equivalent: <argument>``: tier-1 passes because the defect cannot change
  what a run does, for the reason given.

A lint rule whose planted defects tier-1 kills is not kept; each kept rule
has a surviving defect here (``docs/analysis.md``).  A killed entry costs
5-45 s on two cores and a surviving one a full tier-1 run, so CI runs the
table in a job of its own.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: Tier-1 files left out of every run: the lint and the usage gates, which
#: judge source shape, not behaviour.
STRUCTURAL = ("tests/test_analysis_lint.py", "tests/test_module_usage.py")

#: CI's tier-1 selection: the chaos, recovery and endurance suites run in jobs
#: of their own, so a defect only they catch is not killed by tier-1.
TIER1_MARKERS = "not chaos and not recovery and not endurance"


class Mutant(NamedTuple):
    """One planted defect: ``source`` in ``path`` becomes ``replacement``."""

    name: str
    #: The file, relative to ``src/repro``.
    path: str
    source: str
    replacement: str
    #: The lint rule or protocol guard the defect breaks.
    breaks: str
    #: ``killed``, ``survives: <reason>`` or ``equivalent: <argument>``.
    expected: str


MUTANTS = (
    # ---------------------------------------- deleted rules: tier-1 kills them
    Mutant(
        "unguarded-tracer-replica",
        "core/replica.py",
        "        if self.tracer is not None:\n"
        "            self.tracer.record(\n"
        "                self.kernel.now(),\n"
        '                "opt_deliver",',
        "        if True:\n"
        "            self.tracer.record(\n"
        "                self.kernel.now(),\n"
        '                "opt_deliver",',
        "tracer-guard",
        "killed",
    ),
    Mutant(
        "unguarded-tracer-batching",
        "broadcast/batching.py",
        "        if self.tracer is not None:\n"
        "            self.tracer.record(\n"
        '                self.kernel.now(), "batch_flush"',
        "        if True:\n"
        "            self.tracer.record(\n"
        '                self.kernel.now(), "batch_flush"',
        "tracer-guard",
        "killed",
    ),
    Mutant(
        "unseeded-sample-workload",
        "workloads/generator.py",
        "                objects = updates.sample(range(spec.objects_per_class), plan.stride)",
        "                import random\n"
        "                objects = random.sample(range(spec.objects_per_class), plan.stride)",
        "seeded-randomness-only",
        "killed",
    ),
    Mutant(
        "unseeded-jitter-geo-latency",
        "network/latency.py",
        "            delay += stream.exponential(profile.jitter)",
        "            import random\n"
        "            delay += random.expovariate(1.0 / profile.jitter)",
        "seeded-randomness-only",
        "killed",
    ),
    Mutant(
        "wallclock-commit-time",
        "core/replica.py",
        "        now = self.kernel.now()\n"
        "        workspace = transaction.workspace",
        "        import time\n"
        "        now = time.time()\n"
        "        workspace = transaction.workspace",
        "no-wallclock",
        "killed",
    ),
    Mutant(
        "wallclock-heartbeat-arrival",
        "failure/detector.py",
        "        self._last_heard[peer] = self.kernel.now()",
        "        import time\n"
        "        self._last_heard[peer] = time.monotonic()",
        "no-wallclock",
        "killed",
    ),
    # ------------------------------------------- kept rules: tier-1 misses them
    Mutant(
        "unsorted-transfer-invalidation",
        "core/replica.py",
        "        for conflict_class in sorted(touched_classes):",
        "        for conflict_class in touched_classes:",
        "no-unordered-iteration",
        "survives: rule kept",
    ),
    Mutant(
        "fstring-in-dispatch-loop",
        "simulation/kernel.py",
        "                event.callback()\n"
        "                executed += 1",
        '                label = f"{event.time}"\n'
        "                event.callback()\n"
        "                executed += 1",
        "kernel-hot-path-allocation",
        "survives: rule kept",
    ),
    Mutant(
        "solicit-only-live-sites",
        "broadcast/optimistic.py",
        "            kind=OPTIMISTIC_SOLICIT_KIND,\n"
        "            destinations=self.group,",
        "            kind=OPTIMISTIC_SOLICIT_KIND,\n"
        "            destinations=[\n"
        "                site for site in self.group if self.transport.is_site_up(site)\n"
        "            ],",
        "no-cross-site-oracle",
        "survives: rule kept",
    ),
    # ------------------------------------------------------ recovery guards
    Mutant(
        "redeliver-transfer-covered",
        "broadcast/optimistic.py",
        "            if message_id in self.transfer_covered:\n"
        "                # The transaction behind this position arrived via state",
        "            if False:\n"
        "                # The transaction behind this position arrived via state",
        "the transfer_covered skip in _try_to_deliver",
        "killed",
    ),
    # --------------------------------------------- serial-indexed row columns
    Mutant(
        "unseen-serial-reads-row-0",
        "simulation/kernel.py",
        '_UNSET_ROWS = array("i", [-1]) * _BLOCK',
        '_UNSET_ROWS = array("i", [0]) * _BLOCK',
        "a serial-indexed row column reads -1 for an id it never recorded",
        "killed",
    ),
    # ----------------------------- Local Order evidence in the delivery columns
    Mutant(
        "to-time-into-opt-column",
        "broadcast/interfaces.py",
        "        self.to_times[row] = now\n",
        "        self.to_times[row] = self.opt_times[row] = now\n",
        "a TO-delivery leaves the row's Opt-delivery time as it was",
        "killed",
    ),
    Mutant(
        "conservative-opt-unrecorded",
        "broadcast/optimistic.py",
        "                self._emit_opt_deliver(row, message_id, self.kernel.now())\n"
        "            if self.to_times[row] >= 0.0:",
        "                self._emit_opt_deliver(row, message_id, -1.0)\n"
        "            if self.to_times[row] >= 0.0:",
        "conservative delivery records its Opt-delivery time before TO-delivering",
        "killed",
    ),
    # ------------------------------------------- routed-query snapshot replay
    Mutant(
        "replay-first-leg-window",
        "verification/sharded.py",
        "            replayed = procedure.body(context, subquery.parameters)",
        "            replayed = procedure.body(context, sharded_query.subqueries[0].parameters)",
        "the consistency replay rebuilds each leg's parameters from its own class window",
        "killed",
    ),
    Mutant(
        "duplicate-order-overwrites",
        "broadcast/optimistic.py",
        "        elif positions[position]:\n"
        "            return True\n",
        "",
        "the first OptimisticOrder for a position wins",
        "equivalent: every order for a position carries one message id. Only "
        "the coordinator assigns positions, and a view change raises the new "
        "coordinator's counter past every position a live site has seen "
        "(ensure_assign_floor), so a repeated order rewrites the id already "
        "there, and the set add, counter raise and delivery attempt after it "
        "are idempotent. A full tier-1 run with the guard instrumented saw no "
        "repeated order with another id",
    ),
)


def plant(mutant: Mutant, text: str) -> str:
    """``text`` with the defect planted; its source text must occur once."""
    count = text.count(mutant.source)
    if count != 1:
        raise ValueError(
            f"{mutant.name}: {mutant.path} holds the source text {count} times, not once"
        )
    return text.replace(mutant.source, mutant.replacement)


def run_tier1(mutant: Mutant) -> str:
    """Plant ``mutant`` in a copy of the checkout; ``killed by <test>`` or ``survived``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        checkout = Path(scratch) / "checkout"
        shutil.copytree(
            ROOT,
            checkout,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"),
        )
        target = checkout / "src" / "repro" / mutant.path
        target.write_text(plant(mutant, target.read_text(encoding="utf-8")), encoding="utf-8")
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(checkout / "src"))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-m", TIER1_MARKERS]
        command += ["-p", "no:cacheprovider"]
        command += [f"--ignore={path}" for path in STRUCTURAL]
        completed = subprocess.run(
            command, cwd=checkout, env=env, capture_output=True, text=True
        )
    if completed.returncode == 0:
        return "survived"
    for line in completed.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return "killed by " + line.split()[1]
    return f"error: pytest exited {completed.returncode}\n{completed.stdout}{completed.stderr}"


def as_expected(mutant: Mutant, outcome: str) -> bool:
    if mutant.expected == "killed":
        return outcome.startswith("killed by ")
    return outcome == "survived"


def main() -> int:
    unexpected = []
    for mutant in MUTANTS:
        started = time.perf_counter()
        outcome = run_tier1(mutant)
        mark = "ok" if as_expected(mutant, outcome) else "UNEXPECTED"
        print(
            f"{mark:10} {mutant.name} [{mutant.breaks}] "
            f"{outcome} ({time.perf_counter() - started:.0f} s; "
            f"expected {mutant.expected.split(':')[0]})",
            flush=True,
        )
        if mark != "ok":
            unexpected.append(mutant.name)
    print(f"{len(MUTANTS) - len(unexpected)} of {len(MUTANTS)} as expected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
