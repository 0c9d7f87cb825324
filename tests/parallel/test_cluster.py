"""Tests for the ledger-leased cluster backend and its lease protocol."""

import sqlite3
import threading
import time

import numpy as np
import pytest

from repro.core.evaluator import build_evaluator
from repro.core.scenarios import one_constraint, unconstrained
from repro.core.search_space import JointSearchSpace
from repro.parallel import RunLedger
from repro.parallel.cluster import ClusterBackend, _heartbeat_loop, run_worker
from repro.parallel.ledger import LedgerError
from repro.search.random_search import RandomSearch
from repro.search.runner import RepeatJob, run_grid


@pytest.fixture
def ledger(tmp_path):
    return RunLedger(tmp_path / "cluster.ledger")


@pytest.fixture
def small_result(micro4_bundle):
    scenario = unconstrained(micro4_bundle.bounds)
    space = JointSearchSpace(cell_encoding=micro4_bundle.cell_encoding)
    evaluator = build_evaluator(
        "database", scenario, bundle=micro4_bundle, platform=micro4_bundle.platform
    )
    return RandomSearch(space, seed=11).run(evaluator, 15)


def two_job_grid(bundle):
    space = JointSearchSpace(cell_encoding=bundle.cell_encoding)
    jobs = []
    for name, factory in (("u", unconstrained), ("c1", one_constraint)):
        scenario = factory(bundle.bounds)
        jobs.append(
            RepeatJob(
                label=name,
                strategy_factory=lambda seed: RandomSearch(space, seed=seed),
                evaluator_factory=lambda sc=scenario: build_evaluator(
                    "database", sc, bundle=bundle, platform=bundle.platform
                ),
                cache_scenario=name,
            )
        )
    return jobs


class TestLeaseProtocol:
    TASKS = [("a", 0), ("a", 1), ("b", 0)]

    def test_seed_is_idempotent(self, ledger):
        ledger.seed_task_leases(self.TASKS)
        ledger.seed_task_leases(self.TASKS)
        rows = ledger.task_lease_rows()
        assert [(r["label"], r["repeat"]) for r in rows] == sorted(self.TASKS)
        assert all(r["state"] == "pending" for r in rows)

    def test_claim_order_is_deterministic(self, ledger):
        ledger.seed_task_leases(self.TASKS)
        claims = [ledger.claim_task("w", 1, now=100.0, stale_after=10.0)
                  for _ in range(4)]
        assert claims == [("a", 0), ("a", 1), ("b", 0), None]

    def test_claim_records_holder(self, ledger):
        ledger.seed_task_leases(self.TASKS)
        ledger.claim_task("w1", 42, now=100.0, stale_after=10.0)
        row = ledger.task_lease_rows()[0]
        assert (row["state"], row["worker"], row["lease_pid"], row["claims"]) == (
            "leased", "w1", 42, 1
        )

    def test_fresh_lease_not_reclaimable(self, ledger):
        ledger.seed_task_leases(self.TASKS[:1])
        assert ledger.claim_task("w1", 1, now=100.0, stale_after=10.0) == ("a", 0)
        # Heartbeat is only 5s old: not runnable for anyone else.
        assert ledger.claim_task("w2", 2, now=105.0, stale_after=10.0) is None

    def test_stale_lease_reissued_and_claims_counted(self, ledger):
        ledger.seed_task_leases(self.TASKS[:1])
        ledger.claim_task("w1", 1, now=100.0, stale_after=10.0)
        assert ledger.claim_task("w2", 2, now=111.0, stale_after=10.0) == ("a", 0)
        row = ledger.task_lease_rows()[0]
        assert (row["worker"], row["claims"]) == ("w2", 2)

    def test_heartbeat_false_after_reissue(self, ledger):
        ledger.seed_task_leases(self.TASKS[:1])
        ledger.claim_task("w1", 1, now=100.0, stale_after=10.0)
        assert ledger.heartbeat_task("a", 0, "w1", now=101.0)
        ledger.claim_task("w2", 2, now=115.0, stale_after=10.0)
        assert not ledger.heartbeat_task("a", 0, "w1", now=116.0)
        assert ledger.heartbeat_task("a", 0, "w2", now=116.0)

    def test_straggler_record_refused(self, ledger, small_result):
        ledger.seed_task_leases(self.TASKS[:1])
        ledger.claim_task("w1", 1, now=100.0, stale_after=10.0)
        ledger.claim_task("w2", 2, now=111.0, stale_after=10.0)  # re-issue
        # w1 limps back after losing the lease: refused, nothing written.
        assert not ledger.record_done_leased("a", 0, "w1", small_result)
        assert ledger.load_result("a", 0) is None
        # The current holder's record lands, exactly once.
        assert ledger.record_done_leased("a", 0, "w2", small_result)
        assert ledger.load_result("a", 0) is not None
        assert ledger.task_lease_rows()[0]["state"] == "done"
        # ...and a later duplicate from anyone is refused too.
        assert not ledger.record_done_leased("a", 0, "w2", small_result)

    def test_done_task_never_reclaimed(self, ledger, small_result):
        ledger.seed_task_leases(self.TASKS[:1])
        ledger.claim_task("w1", 1, now=100.0, stale_after=10.0)
        ledger.record_done_leased("a", 0, "w1", small_result)
        assert ledger.claim_task("w2", 2, now=200.0, stale_after=10.0) is None

    def test_cluster_progress_counts(self, ledger, small_result):
        ledger.seed_task_leases(self.TASKS)
        ledger.claim_task("w1", 1, now=100.0, stale_after=10.0)
        ledger.record_done_leased("a", 0, "w1", small_result)
        ledger.claim_task("w1", 1, now=101.0, stale_after=10.0)
        assert ledger.cluster_progress() == {
            "pending": 1, "leased": 1, "done": 1, "total": 3
        }

    def test_heartbeat_survives_a_locked_file(self, ledger, monkeypatch):
        # "database is locked" (the busy timeout ran out) is a missed
        # tick: the heartbeat thread beats again instead of dying, so
        # the lease is lost only by going stale.
        ledger.seed_task_leases(self.TASKS[:1])
        ledger.claim_task("w1", 1, now=100.0, stale_after=10.0)
        beat, calls = RunLedger.heartbeat_task, []

        def locked_once(self, *args):
            calls.append(args)
            if len(calls) == 1:
                raise sqlite3.OperationalError("database is locked")
            return beat(self, *args)

        monkeypatch.setattr(RunLedger, "heartbeat_task", locked_once)
        stop = threading.Event()
        thread = threading.Thread(
            target=_heartbeat_loop, args=(ledger.path, "a", 0, "w1", 0.01, stop)
        )
        thread.start()
        try:
            deadline = time.monotonic() + 30
            while ledger.task_lease_rows()[0]["heartbeat"] == 100.0:
                assert thread.is_alive(), "the heartbeat thread ended"
                assert time.monotonic() < deadline, "the heartbeat never advanced"
                time.sleep(0.01)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(calls) >= 2

    def test_seed_marks_out_of_band_completions_done(self, ledger, small_result):
        # A task recorded outside the lease protocol (a serial resume of
        # the same ledger) must still converge the lease accounting.
        ledger.seed_task_leases(self.TASKS[:1])
        ledger.record_done("a", 0, small_result)
        ledger.seed_task_leases([])
        assert ledger.task_lease_rows()[0]["state"] == "done"
        assert ledger.claim_task("w", 1, now=100.0, stale_after=10.0) is None


class TestRunWorker:
    def test_requires_file_backed_ledger(self, micro4_bundle):
        with pytest.raises(LedgerError, match="file-backed"):
            run_worker(
                two_job_grid(micro4_bundle), RunLedger(),
                num_steps=5, num_repeats=1,
            )

    def test_unknown_label_rejected(self, ledger, micro4_bundle):
        ledger.seed_task_leases([("ghost", 0)])
        with pytest.raises(LedgerError, match="ghost"):
            run_worker(
                two_job_grid(micro4_bundle), ledger,
                num_steps=5, num_repeats=1,
            )

    def test_single_worker_drains_the_grid(self, ledger, micro4_bundle):
        jobs = two_job_grid(micro4_bundle)
        recorded = run_worker(jobs, ledger, num_steps=10, num_repeats=2)
        assert recorded == 4
        progress = ledger.cluster_progress()
        assert progress["done"] == progress["total"] == 4

    def test_max_tasks_bounds_contribution(self, ledger, micro4_bundle):
        jobs = two_job_grid(micro4_bundle)
        assert run_worker(
            jobs, ledger, num_steps=10, num_repeats=2, max_tasks=1
        ) == 1
        assert ledger.cluster_progress()["done"] == 1

    def test_worker_results_feed_a_later_grid_run(
        self, ledger, micro4_bundle
    ):
        # Elastic join order: a worker may beat the coordinator to the
        # ledger.  Its recorded tasks must be served, not recomputed.
        jobs = two_job_grid(micro4_bundle)
        run_worker(jobs, ledger, num_steps=10, num_repeats=2)
        from_worker = run_grid(
            jobs, num_steps=10, num_repeats=2, backend="serial", ledger=ledger
        )
        fresh = run_grid(jobs, num_steps=10, num_repeats=2, backend="serial")
        for label in fresh:
            for ra, rb in zip(fresh[label].results, from_worker[label].results):
                assert np.array_equal(
                    ra.reward_trace(), rb.reward_trace(), equal_nan=True
                )


class TestClusterBackend:
    def test_requires_ledger(self, micro4_bundle):
        with pytest.raises(ValueError, match="file-backed ledger"):
            run_grid(
                two_job_grid(micro4_bundle),
                num_steps=5, num_repeats=1, backend="cluster",
            )

    def test_cluster_shares_eval_cache(self, tmp_path, micro4_bundle):
        from repro.parallel import EvalCache

        cache = EvalCache(tmp_path / "ec.sqlite")
        run_grid(
            two_job_grid(micro4_bundle),
            num_steps=15,
            num_repeats=2,
            backend="cluster",
            workers=2,
            ledger=tmp_path / "c.ledger",
            eval_cache=cache,
        )
        # Workers merged their deltas back into the shared store.
        assert len(cache) > 0

    def test_execution_recorded_in_ledger(self, tmp_path, micro4_bundle):
        path = tmp_path / "c.ledger"
        run_grid(
            two_job_grid(micro4_bundle),
            num_steps=10,
            num_repeats=2,
            backend="cluster",
            workers=2,
            ledger=path,
        )
        entries = RunLedger(path).executions()
        assert len(entries) == 1
        assert entries[0]["requested"] == entries[0]["effective"] == "cluster"
        assert entries[0]["workers"] == 2

    def test_process_fallback_recorded(self, tmp_path):
        # One task => the process backend degrades to serial, and the
        # ledger must say so (resumed/served studies report reality).
        from repro.core.evaluator import CodesignEvaluator
        from repro.core.reward import MetricBounds
        from repro.core.scenarios import unconstrained as uncon

        space = JointSearchSpace()
        jobs = [
            RepeatJob(
                label="solo",
                strategy_factory=lambda seed: RandomSearch(space, seed=seed),
                evaluator_factory=lambda: CodesignEvaluator.from_surrogate(
                    uncon(MetricBounds())
                ),
            )
        ]
        path = tmp_path / "solo.ledger"
        run_grid(
            jobs, num_steps=5, num_repeats=1,
            backend="process", workers=4, ledger=path,
        )
        entries = RunLedger(path).executions()
        assert entries[0]["requested"] == "process"
        assert entries[0]["effective"] == "serial"

    def test_resume_appends_second_execution(self, tmp_path, micro4_bundle):
        jobs = two_job_grid(micro4_bundle)
        path = tmp_path / "r.ledger"
        run_grid(jobs, num_steps=10, num_repeats=2, backend="serial", ledger=path)
        run_grid(
            jobs, num_steps=10, num_repeats=2,
            backend="cluster", workers=2, ledger=path,
        )
        requested = [e["requested"] for e in RunLedger(path).executions()]
        assert requested == ["serial", "cluster"]

    def test_describe_execution_reports_worker_split(self, tmp_path):
        backend = ClusterBackend()

        class FakeGrid:
            pending = [(0, 0), (0, 1), (1, 0)]
            workers = 2

        description = backend.describe_execution(FakeGrid())
        assert description["requested"] == "cluster"
        assert description["workers"] == 2
