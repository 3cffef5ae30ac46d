"""Micro-benchmarks (P): N calls into one layer's public functions in isolation.

Run as ``python -m bench.probes`` in a fresh interpreter; prints one JSON
object ``{metric name: value}`` on its last line.  The probes do not depend
on the workload, only on ``--seed``; each timing is the median of three
repetitions unless it takes seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.broadcast.batching import BatchingConfig, BatchingEndpoint
from repro.broadcast.optimistic import OptimisticAtomicBroadcast
from repro.database.conflict import ConflictClassMap
from repro.database.snapshots import SnapshotManager
from repro.database.storage import MultiVersionStore
from repro.harness import Design, SweepExecutor
from repro.harness.profiling import profile_event_loop
from repro.metrics.collector import MetricsCollector
from repro.network.dispatcher import SiteDispatcher
from repro.network.latency import LanMulticastLatency
from repro.network.transport import NetworkTransport
from repro.observability.registry import derive_metrics
from repro.simulation.kernel import SimulationKernel
from repro.verification import check_one_copy_serializability

from .cells import FlatCell


def _timed(action: Callable[[], object]) -> float:
    gc.collect()
    started = time.perf_counter()
    action()
    return time.perf_counter() - started


def _median_us(probe: Callable[[], float], calls: int) -> float:
    """Median of three runs of ``probe`` (host seconds), per call, in microseconds."""
    return 1e6 * statistics.median(probe() for _ in range(3)) / calls


# ------------------------------------------------------------------ simulation


def probe_deep_heap(events: int, pending: int, seed: int) -> float:
    """One timer chain dispatching ``events`` events over ``pending`` parked ones."""
    kernel = SimulationKernel(seed=seed)
    for index in range(pending):
        kernel.schedule(1e6 + index, lambda: None)
    remaining = [events]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            kernel.schedule(0.000001, tick)

    kernel.schedule(0.0, tick)
    return _timed(lambda: kernel.run(until=1.0))


# --------------------------------------------------------------------- network


def _lan(seed: int) -> tuple:
    kernel = SimulationKernel(seed=seed)
    return kernel, NetworkTransport(kernel, LanMulticastLatency())


def probe_multicast(count: int, seed: int) -> float:
    """``count`` multicasts to 4 sites with no-op receivers, delivered to idle."""
    sites = ["N1", "N2", "N3", "N4"]
    kernel, transport = _lan(seed)
    for site in sites:
        transport.register_site(site, lambda envelope: None)

    def send_all() -> None:
        for index in range(count):
            transport.multicast(sites[index % 4], index)
        kernel.run_until_idle()

    return _timed(send_all)


# ------------------------------------------------------------------- broadcast


def probe_abcast(count: int, seed: int, batching: Optional[BatchingConfig]) -> float:
    """``count`` atomic broadcasts in a 4-site group, no replicas attached."""
    sites = ["N1", "N2", "N3", "N4"]
    kernel, transport = _lan(seed)
    endpoints = []
    for site in sites:
        endpoint = OptimisticAtomicBroadcast(
            kernel, transport, SiteDispatcher(transport, site), site,
            coordinator_site=sites[0], group=sites,
        )
        if batching is not None:
            endpoint = BatchingEndpoint(kernel, endpoint, batching)
        endpoints.append(endpoint)
    for index in range(count):
        kernel.schedule_at(
            0.00025 * index, lambda i=index: endpoints[i % 4].broadcast(i))
    elapsed = _timed(kernel.run_until_idle)
    delivered = len(endpoints[-1].to_delivery_log)
    if delivered != count:
        raise RuntimeError(f"abcast probe delivered {delivered} of {count} messages")
    return elapsed


# -------------------------------------------------------------------- database


def probe_install(count: int) -> float:
    store = MultiVersionStore()
    keys = [f"part0:obj{index}" for index in range(20)]

    def install_all() -> None:
        for index in range(count):
            store.install(keys[index % 20], index, created_index=index, created_by="T")

    return _timed(install_all)


def probe_class_of_key(count: int, classes: int) -> float:
    conflict_map = ConflictClassMap()
    for index in range(classes):
        conflict_map.define(f"C{index}", key_prefixes=(f"part{index}:",))
    keys = [f"part{index % classes}:obj{index % 20}" for index in range(count)]

    def resolve_all() -> None:
        for key in keys:
            conflict_map.class_of_key(key)

    return _timed(resolve_all)


def probe_snapshot_read(count: int) -> float:
    store = MultiVersionStore()
    keys = [f"part0:obj{index}" for index in range(20)]
    for key in keys:
        store.load(key, 0)
    manager = SnapshotManager(store)
    for index in range(32):
        for key in keys:
            store.install(key, index, created_index=index, created_by="T")
        manager.advance(index)

    def read_all() -> None:
        for index in range(count // 20):
            snapshot = manager.snapshot(index % 32 + 0.5)
            for key in keys:
                snapshot.read(key)

    return _timed(read_all)


# --------------------------------------------------------------------- metrics


def probe_metrics(count: int, record: bool) -> float:
    collector = MetricsCollector("probe")

    def update_all() -> None:
        if record:
            for index in range(count):
                collector.record_latency("client_commit_latency", 0.001)
        else:
            for index in range(count):
                collector.increment("commits")

    return _timed(update_all)


# ------------------------------------------------------- cells built for probes


def _finished_flat_cell(seed: int, *, site_count: int, updates_per_site: int) -> tuple:
    cell = FlatCell("flat_update", seed, site_count=site_count,
                    updates_per_site=updates_per_site)
    return cell, _timed(cell.run)


def probe_scaling(seed: int, small: int, large: int) -> Dict[str, float]:
    """Host time of the 1SR check and of ``derive_metrics`` at two history sizes."""
    timings: Dict[int, tuple] = {}
    for commits in (small, large):
        cell, _ = _finished_flat_cell(seed, site_count=4, updates_per_site=commits // 4)
        check_s = _timed(lambda: check_one_copy_serializability(cell.cluster.histories()))
        derive_s = _timed(lambda: derive_metrics(cell.cluster))
        timings[commits] = (check_s, derive_s)
    span = math.log(large / small)
    return {
        "verification.probe_check_s_600": timings[small][0],
        "verification.probe_check_s_2400": timings[large][0],
        "verification.onecopy_scaling_exponent":
            math.log(timings[large][0] / timings[small][0]) / span,
        "observability.probe_derive_s_600": timings[small][1],
        "observability.probe_derive_s_2400": timings[large][1],
        "observability.derive_scaling_exponent":
            math.log(timings[large][1] / timings[small][1]) / span,
    }


# --------------------------------------------------------------------- harness


def probe_sweeps(quick: bool) -> Dict[str, float]:
    """Pool overhead on 64 empty cells, and the jobs=2 speedup of 8 real cells."""
    probe = Design(name="bench_probe_fanout",
                   factors={"alpha": tuple(range(8)), "beta": ("x", "y")}, seeds=range(4))
    runner = "repro.harness.cells:seed_probe_cell"
    serial = SweepExecutor(jobs=1).run(probe, runner)
    pooled = SweepExecutor(jobs=2).run(probe, runner)
    batching = Design(
        name="bench_probe_batching",
        factors={"interval_ms": (1.0, 0.25), "window_ms": (None, 1.0, 2.0, 4.0)},
        base=dict(site_count=4, updates_per_site=10 if quick else 30, class_count=8,
                  execution_ms=0.3, max_batch_size=32, medium_frame_time=0.00022, seed=7),
    )
    runner = "repro.harness.cells:batching_cell"
    serial_cells = SweepExecutor(jobs=1).run(batching, runner)
    pooled_cells = SweepExecutor(jobs=2).run(batching, runner)
    for report in (serial, pooled, serial_cells, pooled_cells):
        report.require_rows()
    return {
        "harness.probe_sweep_overhead_ms_per_cell":
            1000.0 * (pooled.elapsed_seconds - serial.elapsed_seconds) / len(serial.specs),
        "harness.sweep_speedup_jobs2":
            serial_cells.elapsed_seconds / pooled_cells.elapsed_seconds,
    }


def run_probes(seed: int, quick: bool) -> Dict[str, float]:
    scale = 10 if quick else 1
    events = 100_000 // scale
    calls = 50_000 // scale
    messages = 2_000 // scale
    single_site_updates = 400 // scale
    batching = BatchingConfig(window=0.002, max_batch_size=16)
    out = {
        "simulation.probe_event_us": statistics.median(
            profile_event_loop(events, seed=seed).microseconds_per_event for _ in range(3)),
        "simulation.probe_event_deep_heap_us": _median_us(
            lambda: probe_deep_heap(events, 10_000, seed), events),
        "network.probe_multicast_us": _median_us(
            lambda: probe_multicast(messages, seed), messages),
        "broadcast.probe_abcast_us": _median_us(
            lambda: probe_abcast(messages, seed, None), messages),
        "broadcast.probe_batched_abcast_us": _median_us(
            lambda: probe_abcast(messages, seed, batching), messages),
        "database.probe_install_us": _median_us(lambda: probe_install(calls), calls),
        "database.probe_class_of_key_us_8": _median_us(
            lambda: probe_class_of_key(calls, 8), calls),
        "database.probe_class_of_key_us_64": _median_us(
            lambda: probe_class_of_key(calls, 64), calls),
        "database.probe_snapshot_read_us": _median_us(
            lambda: probe_snapshot_read(calls), calls),
        "metrics.probe_increment_us": _median_us(lambda: probe_metrics(calls, False), calls),
        "metrics.probe_record_latency_us": _median_us(
            lambda: probe_metrics(calls, True), calls),
    }
    cell, run_s = _finished_flat_cell(seed, site_count=1, updates_per_site=single_site_updates)
    out["core.probe_single_site_us_per_commit"] = 1e6 * run_s / cell.commits()
    out.update(probe_scaling(seed, 600 // scale, 2400 // scale))
    out.update(probe_sweeps(quick))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.probes")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run_probes(args.seed, args.quick)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
