"""Ablation benchmark: how the definitive order is established.

DESIGN.md decision 3: the optimistic atomic broadcast can confirm the
definitive order either through a plain sequencer (one control message per
data message) or through the voting/agreement-check mode that is faithful to
Pedone & Schiper's protocol (every site announces its spontaneous order, the
coordinator waits for unanimity and records fast-path vs. conservative
decisions).  The ablation quantifies the cost of the extra agreement check —
more control messages and a longer Opt-to-TO delay — and verifies that both
modes preserve correctness, which is why the cheaper sequencer mode is the
default for the experiments.
"""

import pytest

from repro.core.config import BROADCAST_OPTIMISTIC, ClusterConfig
from repro.harness import run_standard_workload
from repro.workloads import WorkloadSpec

pytestmark = pytest.mark.bench


def run_mode(ordering_mode: str):
    spec = WorkloadSpec(
        class_count=6,
        updates_per_site=25,
        update_interval=0.004,
        update_duration=0.002,
    )
    config = ClusterConfig(
        site_count=4,
        seed=19,
        broadcast=BROADCAST_OPTIMISTIC,
        ordering_mode=ordering_mode,
        voting_timeout=0.02,
    )
    return run_standard_workload(config, spec)


def run_both():
    return {"sequencer": run_mode("sequencer"), "voting": run_mode("voting")}


def test_ordering_mode_ablation():
    results = run_both()
    sequencer, voting = results["sequencer"], results["voting"]

    # Both modes are correct and commit the same number of transactions.
    assert sequencer.one_copy_ok and voting.one_copy_ok
    assert sequencer.broadcast_ok and voting.broadcast_ok
    assert sequencer.committed == voting.committed

    # The agreement check costs ordering delay: TO-delivery lags Opt-delivery
    # more in voting mode, which translates into higher commit latency.
    assert voting.mean_ordering_delay > sequencer.mean_ordering_delay
    assert voting.mean_client_latency >= sequencer.mean_client_latency
