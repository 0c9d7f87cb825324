"""Tests for the ledger-backed study queue.

Two layers: the :class:`RunLedger` queue primitives (every transition
one committed transaction, lease semantics under explicit clocks) and
the :class:`StudyQueue` wrapper (validation, state layout, cache
sharding, claim cadence).  The worker pool and HTTP surface are
covered end to end in ``test_server_e2e.py``.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.core.archive import ArchiveEntry, SearchArchive
from repro.core.evaluator import build_evaluator
from repro.core.scenarios import one_constraint, unconstrained
from repro.core.search_space import JointSearchSpace
from repro.core.study import StudyError, StudySpec
from repro.experiments.presets import resolve_spec
from repro.parallel.ledger import (
    STUDY_STATES,
    TERMINAL_STUDY_STATES,
    LedgerError,
    RunLedger,
)
from repro.search.random_search import RandomSearch
from repro.search.runner import RepeatJob, run_grid
from repro.server import StudyQueue


@pytest.fixture
def ledger(tmp_path) -> RunLedger:
    return RunLedger(tmp_path / "queue.sqlite")


class TestLedgerQueue:
    def test_submit_and_read_back(self, ledger):
        ledger.submit_study("st-a", {"name": "a"}, now=1.0)
        row = ledger.study("st-a")
        assert row["state"] == "queued"
        assert row["spec"] == {"name": "a"}
        assert row["submitted_at"] == 1.0
        assert row["started_at"] is None
        assert ledger.study("st-missing") is None

    def test_duplicate_submit_refused(self, ledger):
        ledger.submit_study("st-a", {}, now=1.0)
        with pytest.raises(LedgerError, match="already queued"):
            ledger.submit_study("st-a", {}, now=2.0)

    def test_claim_is_fifo_by_submission(self, ledger):
        ledger.submit_study("st-b", {}, now=2.0)
        ledger.submit_study("st-a", {}, now=1.0)
        assert ledger.claim_study("w7", pid=7, now=3.0, stale_after=10.0) == "st-a"
        assert ledger.claim_study("w7", pid=7, now=3.0, stale_after=10.0) == "st-b"
        assert ledger.claim_study("w7", pid=7, now=3.0, stale_after=10.0) is None

    def test_claim_records_lease(self, ledger):
        ledger.submit_study("st-a", {}, now=1.0)
        ledger.claim_study("w42", pid=42, now=5.0, stale_after=10.0)
        row = ledger.study("st-a")
        assert row["state"] == "running"
        assert row["lease_pid"] == 42
        assert row["heartbeat"] == 5.0
        assert row["started_at"] == 5.0

    def test_fresh_heartbeat_blocks_reclaim(self, ledger):
        ledger.submit_study("st-a", {}, now=0.0)
        ledger.claim_study("w1", pid=1, now=0.0, stale_after=10.0)
        ledger.heartbeat_study("st-a", "w1", now=8.0)
        assert ledger.claim_study("w2", pid=2, now=9.0, stale_after=10.0) is None

    def test_stale_heartbeat_is_reclaimed(self, ledger):
        # The crash-recovery path: a SIGKILLed server stops
        # heartbeating, and once the lease goes stale any worker may
        # re-lease the study and resume it.
        ledger.submit_study("st-a", {}, now=0.0)
        ledger.claim_study("w1", pid=1, now=0.0, stale_after=10.0)
        assert ledger.claim_study("w2", pid=2, now=11.0, stale_after=10.0) == "st-a"
        row = ledger.study("st-a")
        assert row["lease_pid"] == 2
        assert row["started_at"] == 0.0  # first start is preserved

    def test_heartbeat_can_repoint_lease_pid(self, ledger):
        # The server leases under its own pid, then hands the lease to
        # the runner subprocess it spawned.
        ledger.submit_study("st-a", {}, now=0.0)
        ledger.claim_study("w1", pid=1, now=0.0, stale_after=10.0)
        ledger.heartbeat_study("st-a", "w1", now=1.0, pid=999)
        assert ledger.study("st-a")["lease_pid"] == 999

    def test_finish_round_trips_result(self, ledger):
        ledger.submit_study("st-a", {}, now=0.0)
        ledger.claim_study("w1", pid=1, now=0.0, stale_after=10.0)
        ledger.finish_study("st-a", "w1", {"outcomes": {"s": 1}}, now=2.0)
        row = ledger.study("st-a")
        assert row["state"] == "done"
        assert row["result"] == {"outcomes": {"s": 1}}
        assert row["finished_at"] == 2.0

    def test_fail_records_error(self, ledger):
        ledger.submit_study("st-a", {}, now=0.0)
        ledger.claim_study("w1", pid=1, now=0.0, stale_after=10.0)
        ledger.fail_study("st-a", "w1", "Traceback ...", now=2.0)
        row = ledger.study("st-a")
        assert row["state"] == "failed"
        assert row["error"] == "Traceback ..."

    def test_finish_requires_running(self, ledger):
        ledger.submit_study("st-a", {}, now=0.0)
        with pytest.raises(LedgerError, match="'queued'"):
            ledger.finish_study("st-a", "w1", {}, now=1.0)
        with pytest.raises(LedgerError, match="unknown study"):
            ledger.finish_study("st-missing", "w1", {}, now=1.0)

    def test_cancel_from_queued_and_running(self, ledger):
        ledger.submit_study("st-a", {}, now=0.0)
        ledger.submit_study("st-b", {}, now=0.0)
        ledger.claim_study("w1", pid=1, now=0.0, stale_after=10.0)
        assert ledger.cancel_study("st-a", now=1.0) == "running"
        assert ledger.cancel_study("st-b", now=1.0) == "queued"
        assert ledger.study("st-a")["state"] == "cancelled"
        assert ledger.study("st-b")["state"] == "cancelled"

    def test_cancel_never_overwrites_a_terminal_state(self, ledger):
        ledger.submit_study("st-a", {}, now=0.0)
        ledger.claim_study("w1", pid=1, now=0.0, stale_after=10.0)
        ledger.finish_study("st-a", "w1", {"ok": True}, now=1.0)
        assert ledger.cancel_study("st-a", now=2.0) is None
        assert ledger.study("st-a")["state"] == "done"
        assert ledger.cancel_study("st-missing", now=2.0) is None

    def test_cancelled_study_refuses_late_results(self, ledger):
        # A runner finishing after a concurrent cancel must be refused
        # — the queue's word stands.
        ledger.submit_study("st-a", {}, now=0.0)
        ledger.claim_study("w1", pid=1, now=0.0, stale_after=10.0)
        ledger.cancel_study("st-a", now=1.0)
        with pytest.raises(LedgerError, match="'cancelled'"):
            ledger.finish_study("st-a", "w1", {"late": True}, now=2.0)

    def test_studies_lists_oldest_first(self, ledger):
        ledger.submit_study("st-b", {}, now=2.0)
        ledger.submit_study("st-a", {}, now=1.0)
        assert [row["id"] for row in ledger.studies()] == ["st-a", "st-b"]

    def test_state_constants(self):
        assert set(TERMINAL_STUDY_STATES) < set(STUDY_STATES)
        assert "running" not in TERMINAL_STUDY_STATES


class TestStudyQueue:
    def test_submit_validates_and_enqueues(self, tmp_path):
        queue = StudyQueue(tmp_path)
        with pytest.raises(StudyError, match="bogus"):
            queue.submit({"name": "x", "bogus": 1})
        refused = resolve_spec("smoke").to_dict()
        refused["strategies"] = [
            {"name": "evolution", "params": {"population_size": 0}}
        ]
        with pytest.raises(StudyError, match="population_size"):
            queue.submit(refused)
        assert queue.open_ledger().studies() == []
        study_id = queue.submit(resolve_spec("smoke").to_dict())
        assert study_id.startswith("st-")
        doc = queue.status(study_id)
        assert doc["state"] == "queued"
        assert doc["name"] == "smoke"
        assert doc["progress"] == {
            "jobs": {},
            "done_repeats": 0,
            "total_repeats": None,
            "executions": [],
        }
        assert [row["id"] for row in queue.list_studies()] == [study_id]
        assert queue.status("st-missing") is None

    def test_submit_refuses_two_tier_threshold_schedule(self, tmp_path):
        queue = StudyQueue(tmp_path)
        spec = resolve_spec("fig7").to_dict()
        spec["execution"]["surrogate"] = True
        with pytest.raises(StudyError, match="'threshold-schedule'"):
            queue.submit(spec)
        assert queue.open_ledger().studies() == []

    def test_submit_refuses_bad_accuracy_source_params(self, tmp_path):
        queue = StudyQueue(tmp_path)
        spec = resolve_spec("smoke").to_dict()
        spec["evaluator"] = {
            "source": "cifar100-trainer",
            "params": {"noise_std": float("nan")},
        }
        with pytest.raises(StudyError, match="noise_std"):
            queue.submit(spec)
        assert queue.open_ledger().studies() == []

    def test_cancel_unknown_or_terminal_returns_none(self, tmp_path):
        queue = StudyQueue(tmp_path)
        assert queue.cancel("st-missing") is None
        study_id = queue.submit(resolve_spec("smoke").to_dict())
        assert queue.cancel(study_id) == "queued"
        assert queue.cancel(study_id) is None  # already terminal

    def test_state_layout(self, tmp_path):
        queue = StudyQueue(tmp_path)
        assert queue.queue_path == tmp_path / "queue.sqlite"
        assert queue.study_ledger_path("st-x") == (
            tmp_path / "studies" / "st-x.ledger"
        )
        assert queue.study_log_path("st-x").parent == tmp_path / "studies"
        assert queue.queue_path.exists()  # schema materialized eagerly

    def test_cache_shards_key_on_evaluation_identity(self, tmp_path):
        queue = StudyQueue(tmp_path)
        smoke = resolve_spec("smoke")
        clone = StudySpec.from_dict(smoke.to_dict())
        other_eval = smoke.with_overrides(
            {"evaluator": {"source": "surrogate", "params": {"seed": 99}}}
        )
        other_hw = smoke.with_overrides({"hardware": {"name": "embedded-lite"}})
        rescaled = smoke.with_overrides({"execution.num_steps": 7})
        assert queue.cache_shard_path(smoke) == queue.cache_shard_path(clone)
        assert queue.cache_shard_path(smoke) != queue.cache_shard_path(other_eval)
        assert queue.cache_shard_path(smoke) != queue.cache_shard_path(other_hw)
        # Execution knobs don't change evaluation identity: same shard.
        assert queue.cache_shard_path(smoke) == queue.cache_shard_path(rescaled)
        assert queue.cache_shard_path(smoke).parent == tmp_path / "cache"

    def test_next_study_is_claimed_when_the_runner_exits(self, tmp_path):
        # The worker thread waits on its runner, not out the rest of its
        # heartbeat tick, so a queue of short studies does not idle
        # between them.
        queue = StudyQueue(tmp_path, heartbeat_every=3.0)
        spec = resolve_spec("smoke").with_overrides({"execution.num_steps": 2})
        ids = [queue.submit(spec.to_dict()) for _ in range(3)]
        queue.start()
        try:
            deadline = time.monotonic() + 120
            while any(
                queue.status(study_id)["state"] in ("queued", "running")
                for study_id in ids
            ):
                assert time.monotonic() < deadline, "the queue never drained"
                time.sleep(0.05)
        finally:
            queue.stop()
        rows = sorted(
            (queue.status(study_id) for study_id in ids),
            key=lambda row: row["started_at"],
        )
        assert [row["state"] for row in rows] == ["done"] * 3
        gaps = [
            later["started_at"] - earlier["finished_at"]
            for earlier, later in zip(rows, rows[1:])
        ]
        assert all(gap < 1.0 for gap in gaps), gaps

    def test_progress_reads_best_rewards_without_decoding(
        self, tmp_path, micro4_bundle, monkeypatch
    ):
        queue = StudyQueue(tmp_path)
        path = queue.study_ledger_path("st-x")
        space = JointSearchSpace(cell_encoding=micro4_bundle.cell_encoding)
        jobs = [
            RepeatJob(
                label=name,
                strategy_factory=lambda seed: RandomSearch(space, seed=seed),
                evaluator_factory=lambda sc=factory(micro4_bundle.bounds): (
                    build_evaluator("database", sc, bundle=micro4_bundle,
                                    platform=micro4_bundle.platform)
                ),
            )
            for name, factory in (("c1", one_constraint), ("u", unconstrained))
        ]
        run_grid(jobs, num_steps=12, num_repeats=2, ledger=path)
        ledger = RunLedger(path)
        # A repeat without a feasible point reports None.
        ledger.record_done(
            "u", 2, replace(ledger.load_result("u", 0), archive=SearchArchive())
        )

        def best_reward(label, repeat):
            best = ledger.load_result(label, repeat).best
            return None if best is None else float(best.reward)

        expected = {
            "c1": [best_reward("c1", repeat) for repeat in range(2)],
            "u": [best_reward("u", repeat) for repeat in range(3)],
        }
        assert expected["u"][2] is None

        def no_decoding(*args, **kwargs):
            raise AssertionError("progress decoded an archive entry")

        monkeypatch.setattr(ArchiveEntry, "__init__", no_decoding)
        progress = queue._progress("st-x")
        assert {
            label: job["best_rewards"] for label, job in progress["jobs"].items()
        } == expected
