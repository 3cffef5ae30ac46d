"""End-to-end reproduction of the worked scenario of paper Section 3.2.

Two sites receive six transactions in different tentative orders:

* tentative order at N :  T1 T2 T3 T4 T5 T6
* tentative order at N':  T1 T3 T2 T4 T6 T5
* definitive total order: T1 T2 T3 T4 T5 T6

with conflict classes T1,T2 in Cx, T3,T4 in Cy and T5,T6 in Cz.  At N the
orders match; at N' the T2/T3 swap is harmless (different classes) while the
T6/T5 swap is a real conflict: T6 must be undone and re-executed after T5.
This test drives two independent OTP schedulers directly with exactly those
delivery sequences and checks the paper's conclusions.  Transaction ``Ti``
has the int id ``i``.
"""

import pytest

from repro.core.execution import ExecutionEngine
from repro.core.scheduler import OTPScheduler
from repro.database import (
    MultiVersionStore,
    ProcedureRegistry,
    StoredProcedure,
    Transaction,
    TransactionRequest,
)
from repro.metrics import MetricsCollector
from repro.simulation import SimulationKernel
from repro.verification import check_one_copy_serializability
from repro.database.history import CommittedTransaction, SiteHistory

CLASS_OF = {
    1: "Cx",
    2: "Cx",
    3: "Cy",
    4: "Cy",
    5: "Cz",
    6: "Cz",
}

DEFINITIVE_ORDER = [1, 2, 3, 4, 5, 6]


class PaperSite:
    """One site of the Section 3.2 scenario, driven by explicit deliveries."""

    def __init__(self, site_id, duration=0.010):
        self.site_id = site_id
        self.kernel = SimulationKernel(seed=0)
        self.store = MultiVersionStore()
        self.store.load_many({f"{cls}:data": 0 for cls in ("Cx", "Cy", "Cz")})
        registry = ProcedureRegistry()
        registry.register(
            StoredProcedure(
                name="work",
                body=lambda ctx, params: ctx.increment(f"{params['cls']}:data"),
                conflict_class=lambda params: params["cls"],
                duration=duration,
            )
        )
        self.engine = ExecutionEngine(self.kernel, self.store, registry, site_id)
        self.commits = []
        self.scheduler = OTPScheduler(
            self.kernel,
            self.engine,
            commit_callback=self._commit,
            metrics=MetricsCollector("otp-scheduler"),
        )
        self.history = SiteHistory(site_id, "T{}".format)
        self.transactions = {}

    def _commit(self, transaction):
        self.commits.append(transaction.transaction_id)
        for key, value in sorted(transaction.workspace.items()):
            self.store.install(
                key,
                value,
                created_index=transaction.global_index,
                created_by=transaction.transaction_id,
                created_at=self.kernel.now(),
            )
        read_keys = tuple(sorted(transaction.reads))
        self.history.record_commit(
            CommittedTransaction(
                transaction_id=transaction.transaction_id,
                conflict_class=transaction.conflict_class,
                global_index=transaction.global_index,
                committed_at=self.kernel.now(),
                write_keys=tuple(sorted(transaction.workspace)),
                read_keys=read_keys,
            ),
            [transaction.reads[key] for key in read_keys],
        )

    def opt_deliver(self, txn_id):
        request = TransactionRequest(
            transaction_id=txn_id,
            procedure_name="work",
            parameters={"cls": CLASS_OF[txn_id]},
            conflict_class=CLASS_OF[txn_id],
            origin_site="client",
            submitted_at=self.kernel.now(),
        )
        transaction = Transaction(request=request, site_id=self.site_id)
        self.transactions[txn_id] = transaction
        self.scheduler.on_opt_deliver(transaction)

    def to_deliver(self, txn_id, position):
        self.scheduler.on_to_deliver(txn_id, position)

    def queue_ids(self, class_id):
        return [entry.transaction_id for entry in self.scheduler.queue_for(class_id)]


def run_scenario(duration=0.010, settle_between=False):
    site_n = PaperSite("N", duration=duration)
    site_n_prime = PaperSite("N'", duration=duration)

    for txn_id in [1, 2, 3, 4, 5, 6]:
        site_n.opt_deliver(txn_id)
    for txn_id in [1, 3, 2, 4, 6, 5]:
        site_n_prime.opt_deliver(txn_id)

    if settle_between:
        site_n.kernel.run_until_idle()
        site_n_prime.kernel.run_until_idle()

    for position, txn_id in enumerate(DEFINITIVE_ORDER):
        site_n.to_deliver(txn_id, position)
        site_n_prime.to_deliver(txn_id, position)
    site_n.kernel.run_until_idle()
    site_n_prime.kernel.run_until_idle()
    return site_n, site_n_prime


class TestPaperScenario:
    def test_initial_queue_contents_match_the_paper(self):
        site_n = PaperSite("N")
        site_n_prime = PaperSite("N'")
        for txn_id in [1, 2, 3, 4, 5, 6]:
            site_n.opt_deliver(txn_id)
        for txn_id in [1, 3, 2, 4, 6, 5]:
            site_n_prime.opt_deliver(txn_id)
        assert site_n.queue_ids("Cx") == [1, 2]
        assert site_n.queue_ids("Cy") == [3, 4]
        assert site_n.queue_ids("Cz") == [5, 6]
        assert site_n_prime.queue_ids("Cz") == [6, 5]

    def test_site_with_matching_tentative_order_never_aborts(self):
        site_n, _ = run_scenario()
        assert all(t.reorder_aborts == 0 for t in site_n.transactions.values())

    def test_site_with_conflicting_mismatch_aborts_exactly_t6(self):
        _, site_n_prime = run_scenario()
        aborted = {
            txn_id
            for txn_id, transaction in site_n_prime.transactions.items()
            if transaction.reorder_aborts > 0
        }
        assert aborted == {6}

    def test_non_conflicting_mismatch_t2_t3_costs_nothing(self):
        _, site_n_prime = run_scenario()
        assert site_n_prime.transactions[2].reorder_aborts == 0
        assert site_n_prime.transactions[3].reorder_aborts == 0

    def test_conflicting_transactions_commit_in_definitive_order_at_both_sites(self):
        site_n, site_n_prime = run_scenario()
        for site in (site_n, site_n_prime):
            for class_id in ("Cx", "Cy", "Cz"):
                class_commits = [t for t in site.commits if CLASS_OF[t] == class_id]
                expected = [t for t in DEFINITIVE_ORDER if CLASS_OF[t] == class_id]
                assert class_commits == expected

    def test_all_transactions_commit_at_both_sites(self):
        site_n, site_n_prime = run_scenario()
        assert set(site_n.commits) == set(DEFINITIVE_ORDER)
        assert set(site_n_prime.commits) == set(DEFINITIVE_ORDER)

    def test_one_copy_serializability_of_the_scenario(self):
        site_n, site_n_prime = run_scenario()
        report = check_one_copy_serializability(
            {"N": site_n.history, "N'": site_n_prime.history}
        )
        report.raise_if_violated()

    def test_scenario_with_executions_finishing_before_confirmation(self):
        """Same scenario but executions complete before any TO-delivery, so the
        mis-ordered T6 at N' is already fully executed when it must be undone."""
        site_n, site_n_prime = run_scenario(duration=0.001, settle_between=True)
        assert site_n_prime.transactions[6].reorder_aborts == 1
        assert site_n_prime.transactions[6].execution_attempts == 2
        report = check_one_copy_serializability(
            {"N": site_n.history, "N'": site_n_prime.history}
        )
        report.raise_if_violated()

    def test_replica_contents_identical_after_scenario(self):
        site_n, site_n_prime = run_scenario()
        assert site_n.store.dump_latest() == site_n_prime.store.dump_latest()
        assert site_n.store.dump_latest() == {
            "Cx:data": 2,
            "Cy:data": 2,
            "Cz:data": 2,
        }
