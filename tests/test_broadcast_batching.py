"""Unit tests for the broadcast batching layer, including batch boundaries.

The batching wrapper must be semantically invisible: per-message optimistic
delivery, TO-delivery order, crash semantics and recovery all behave as if
every message had been broadcast individually.  The boundary cases pinned
here: the coalescing buffer is dropped unsent on a crash (*empty flush*), a
batch in flight across a sequencer failover is still ordered exactly once,
and a size-1 batching configuration produces the same delivery order and
the same history as batching disabled.
"""

import pytest

from repro import BatchingConfig, ClusterConfig, ProcedureRegistry, ReplicatedDatabase
from repro.broadcast.batching import Batch, BatchingEndpoint
from repro.core.config import BROADCAST_CONSERVATIVE, BROADCAST_OPTIMISTIC
from repro.errors import BroadcastError
from repro.failure import CrashSchedule
from repro.verification import check_broadcast_properties, check_one_copy_serializability

from oracles import committed_transactions


def build_registry():
    registry = ProcedureRegistry()

    @registry.procedure("add", conflict_class=lambda p: f"C{p['slot'] % 3}", duration=0.002)
    def add(ctx, params):
        key = f"slot:{params['slot']}"
        ctx.write(key, ctx.read(key) + 1)

    return registry


def build_cluster(batching, *, broadcast=BROADCAST_OPTIMISTIC, seed=3, site_count=4):
    return ReplicatedDatabase(
        ClusterConfig(
            site_count=site_count,
            seed=seed,
            broadcast=broadcast,
            batching=batching,
        ),
        build_registry(),
        initial_data={f"slot:{index}": 0 for index in range(6)},
    )


def submit(cluster, count, *, start=0.0, spacing=0.004, sites=("N1", "N2", "N3", "N4")):
    for index in range(count):
        cluster.kernel.schedule_at(
            start + index * spacing,
            lambda site=sites[index % len(sites)], index=index: cluster.submit(
                site, "add", {"slot": index % 6}
            ),
        )


def commit_fingerprint(cluster, site):
    """The site's commit order as (origin, slot) pairs, id-independent."""
    requests = {}
    for replica in cluster.replicas.values():
        for transaction_id, submitted in replica.submitted.items():
            requests[transaction_id] = (
                submitted.request.origin_site,
                submitted.request.parameters["slot"],
            )
    history = cluster.replica(site).history
    return [
        requests[committed.transaction_id]
        for committed in sorted(
            committed_transactions(history), key=lambda c: c.global_index
        )
    ]


class TestBatchingConfig:
    def test_rejects_negative_window(self):
        with pytest.raises(BroadcastError):
            BatchingConfig(window=-0.001)

    def test_rejects_empty_batches(self):
        with pytest.raises(BroadcastError):
            BatchingConfig(max_batch_size=0)


class TestCoalescing:
    def test_window_coalesces_into_one_inner_broadcast(self):
        cluster = build_cluster(BatchingConfig(window=0.002, max_batch_size=8))
        endpoint = cluster.broadcast_endpoint("N1")
        assert isinstance(endpoint, BatchingEndpoint)
        for slot in range(3):
            cluster.submit("N1", "add", {"slot": slot})
        # Three member submissions buffered, nothing on the wire yet.
        assert endpoint.pending_count == 3
        assert endpoint.inner.stats.broadcasts == 0
        cluster.run_until_idle()
        assert endpoint.pending_count == 0
        assert endpoint.inner.stats.broadcasts == 1  # one batch message
        assert endpoint.stats.broadcasts == 3  # three member submissions
        # Members TO-deliver individually, in batch order, with consecutive
        # outer positions.
        assert cluster.replica("N1").committed_count() == 3
        check_one_copy_serializability(cluster.histories()).raise_if_violated()

    def test_max_batch_size_flushes_immediately(self):
        cluster = build_cluster(BatchingConfig(window=1.0, max_batch_size=2))
        endpoint = cluster.broadcast_endpoint("N2")
        cluster.submit("N2", "add", {"slot": 0})
        assert endpoint.pending_count == 1
        cluster.submit("N2", "add", {"slot": 1})
        # The size bound flushed synchronously; the huge window never fires.
        assert endpoint.pending_count == 0
        assert endpoint.inner.stats.broadcasts == 1
        cluster.run_until_idle()
        assert cluster.replica("N4").committed_count() == 2

    def test_window_flush_leaves_event_accounting_clean(self):
        # Regression: a timer-driven flush used to cancel its own already-
        # fired window event, double-decrementing the queue's live count so
        # kernel.pending_events went negative after a batched run.
        cluster = build_cluster(BatchingConfig(window=0.002, max_batch_size=64))
        submit(cluster, count=9, spacing=0.0015)
        cluster.run_until_idle()
        assert cluster.kernel.pending_events == 0
        assert cluster.replica("N1").committed_count() == 9

    def test_batched_run_passes_broadcast_properties(self):
        cluster = build_cluster(BatchingConfig(window=0.001, max_batch_size=4))
        submit(cluster, count=12, spacing=0.0015)
        cluster.run_until_idle()
        endpoints = {site: cluster.broadcast_endpoint(site) for site in cluster.site_ids()}
        check_broadcast_properties(endpoints).raise_if_violated()
        # Member-level delivery logs: every submission delivered everywhere.
        for endpoint in endpoints.values():
            assert len(endpoint.to_delivery_log) == 12


class TestBatchBoundaries:
    def test_pending_batch_is_dropped_on_crash_and_resubmitted(self):
        """Empty flush on crash: the coalescing buffer dies with the process.

        N1's buffered submissions never reach the wire; its clients see the
        outcome-unknown state, and recovery re-submits them so each still
        commits exactly once.
        """
        cluster = build_cluster(BatchingConfig(window=0.050, max_batch_size=64))
        endpoint = cluster.broadcast_endpoint("N1")
        for slot in range(3):
            cluster.submit("N1", "add", {"slot": slot})
        assert endpoint.pending_count == 3
        cluster.crash_manager.apply_schedule(
            CrashSchedule().crash("N1", at=0.010).recover("N1", at=0.100)
        )
        cluster.run(until=0.020)
        # The crash hit before the 50 ms window expired: nothing was sent.
        assert endpoint.pending_count == 0
        assert endpoint.inner.stats.broadcasts == 0
        voided = [
            submitted
            for submitted in cluster.replica("N1").submitted.values()
            if submitted.crash_voided_at is not None
        ]
        assert len(voided) == 3
        cluster.run_until_idle()
        # Recovery re-submitted all three; each committed exactly once.
        for site in cluster.site_ids():
            assert cluster.replica(site).committed_count() == 3
        assert cluster.database_divergence() == {}
        check_one_copy_serializability(cluster.histories()).raise_if_violated()

    def test_batch_spanning_sequencer_failover(self):
        """A flushed batch in flight when the coordinator dies is ordered once.

        Survivor submissions coalesce into batches that are opt-delivered
        but unconfirmed when N1 (the coordinator) crashes mid-stream; the
        promoted coordinator must order those batches, and every member
        commits exactly once in the same order at all survivors.
        """
        cluster = build_cluster(BatchingConfig(window=0.002, max_batch_size=8), seed=9)
        submit(cluster, count=8, start=0.0, spacing=0.001, sites=("N2", "N3", "N4"))
        cluster.crash_manager.apply_schedule(CrashSchedule().crash("N1", at=0.004))
        cluster.run_until_idle()

        assert cluster.coordinator_site() == "N2"
        surviving = ["N2", "N3", "N4"]
        for site in surviving:
            assert cluster.replica(site).committed_count() == 8
        orders = [cluster.broadcast_endpoint(site).to_delivery_log for site in surviving]
        assert orders[0] == orders[1] == orders[2]
        histories = {site: cluster.replica(site).history for site in surviving}
        check_one_copy_serializability(histories).raise_if_violated()

    def test_single_message_batches_match_batching_disabled(self):
        """max_batch_size=1 must reproduce the unbatched run exactly.

        Every submission flushes synchronously as a one-member batch, so the
        delivery order and the committed history (compared id-independently
        as (origin, slot) sequences) are identical to batching disabled.
        """
        batched = build_cluster(BatchingConfig(window=0.010, max_batch_size=1), seed=5)
        plain = build_cluster(None, seed=5)
        for cluster in (batched, plain):
            submit(cluster, count=10, spacing=0.0015)
            cluster.run_until_idle()

        for site in batched.site_ids():
            assert commit_fingerprint(batched, site) == commit_fingerprint(plain, site)
            assert (
                batched.replica(site).database_contents()
                == plain.replica(site).database_contents()
            )
        # Same per-site delivery counts at member granularity.
        for site in batched.site_ids():
            assert len(batched.broadcast_endpoint(site).to_delivery_log) == len(
                plain.broadcast_endpoint(site).to_delivery_log
            )

    @pytest.mark.parametrize("broadcast", [BROADCAST_OPTIMISTIC, BROADCAST_CONSERVATIVE])
    def test_batching_wraps_both_protocols(self, broadcast):
        cluster = build_cluster(
            BatchingConfig(window=0.001, max_batch_size=4), broadcast=broadcast
        )
        submit(cluster, count=8, spacing=0.002)
        cluster.run_until_idle()
        for site in cluster.site_ids():
            assert cluster.replica(site).committed_count() == 8
        assert cluster.database_divergence() == {}
        check_one_copy_serializability(cluster.histories()).raise_if_violated()
