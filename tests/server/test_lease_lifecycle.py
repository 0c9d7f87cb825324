"""The one lease lifecycle shared by the study queue and the cluster.

``RunLedger`` leases studies (``repro serve``) and (job, repeat) tasks
(the ``cluster`` backend) through one claim, one heartbeat and one
end.  These tests pin what the study queue gained from sharing it:
heartbeats and terminal writes are owner-checked, a cancel through any
server stops the runner, one timing rule guards both queues, and files
written before the ``studies`` table had lease columns, or before
archives moved into ``archive_rows``, still open, resume and finish.
"""

from __future__ import annotations

import json
import os
import socket
import sqlite3
import time
from contextlib import closing

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.evaluator import build_evaluator
from repro.core.scenarios import one_constraint, unconstrained
from repro.core.search_space import JointSearchSpace
from repro.parallel.cluster import run_worker
from repro.parallel.ledger import LedgerError, RunLedger, _dumps, encode_state
from repro.parallel.worker import main as worker_main
from repro.search.combined import CombinedSearch
from repro.search.random_search import RandomSearch
from repro.search.runner import RepeatJob, run_grid
from repro.server import StudyQueue, StudyServer
from repro.utils.rng import hash_seed
from test_server_e2e import SLOW_SOURCE_PLUGIN, slow_spec

#: The ledger schema as files were written before ``PRAGMA
#: user_version`` existed (version 0): ``studies`` has no ``worker`` or
#: ``claims`` column.
VERSION_0_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS tasks (
    label  TEXT NOT NULL,
    repeat INTEGER NOT NULL,
    status TEXT NOT NULL DEFAULT 'pending',
    result TEXT,
    PRIMARY KEY (label, repeat)
);
CREATE TABLE IF NOT EXISTS checkpoints (
    label      TEXT NOT NULL,
    repeat     INTEGER NOT NULL,
    steps_done INTEGER NOT NULL,
    state      TEXT NOT NULL,
    PRIMARY KEY (label, repeat)
);
CREATE TABLE IF NOT EXISTS studies (
    study_id     TEXT PRIMARY KEY,
    spec         TEXT NOT NULL,
    state        TEXT NOT NULL DEFAULT 'queued',
    submitted_at REAL NOT NULL,
    started_at   REAL,
    finished_at  REAL,
    lease_pid    INTEGER,
    heartbeat    REAL,
    result       TEXT,
    error        TEXT
);
CREATE TABLE IF NOT EXISTS task_leases (
    label     TEXT NOT NULL,
    repeat    INTEGER NOT NULL,
    state     TEXT NOT NULL DEFAULT 'pending',
    worker    TEXT,
    lease_pid INTEGER,
    heartbeat REAL,
    claims    INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (label, repeat)
);
"""


def write_version_0(path, *statements) -> None:
    with closing(sqlite3.connect(path)) as conn:
        conn.executescript(VERSION_0_SCHEMA)
        for sql, params in statements:
            conn.execute(sql, params)
        conn.commit()


def write_version_1(path, *statements) -> None:
    """A file as version 1 wrote it: ``studies`` has the lease columns,
    and each result and checkpoint holds its archive inline."""
    write_version_0(
        path,
        ("ALTER TABLE studies ADD COLUMN worker TEXT", ()),
        ("ALTER TABLE studies ADD COLUMN claims INTEGER NOT NULL DEFAULT 0", ()),
        ("PRAGMA user_version=1", ()),
        *statements,
    )


def user_version(path) -> int:
    with closing(sqlite3.connect(path)) as conn:
        return conn.execute("PRAGMA user_version").fetchone()[0]


def two_job_grid(bundle) -> list[RepeatJob]:
    space = JointSearchSpace(cell_encoding=bundle.cell_encoding)
    return [
        RepeatJob(
            label=name,
            strategy_factory=lambda seed: RandomSearch(space, seed=seed),
            evaluator_factory=lambda sc=factory(bundle.bounds): build_evaluator(
                "database", sc, bundle=bundle, platform=bundle.platform
            ),
            cache_scenario=name,
        )
        for name, factory in (("c1", one_constraint), ("u", unconstrained))
    ]


class TestStaleHolder:
    def test_stale_holder_is_refused_and_the_new_holder_finishes(self, tmp_path):
        ledger = RunLedger(tmp_path / "queue.sqlite")
        ledger.submit_study("st-a", {}, now=0.0)
        assert ledger.claim_study("A", pid=1, now=0.0, stale_after=10.0) == "st-a"
        # A stalls past stale_after; B re-leases the study.
        assert ledger.claim_study("B", pid=2, now=11.0, stale_after=10.0) == "st-a"

        assert not ledger.heartbeat_study("st-a", "A", now=12.0, pid=111)
        row = ledger.study("st-a")
        assert (row["lease_pid"], row["heartbeat"]) == (2, 11.0)
        held_by_b = "state is 'running', held by 'B'"
        with pytest.raises(LedgerError, match=held_by_b):
            ledger.fail_study("st-a", "A", "runner exited with code -9", now=13.0)
        with pytest.raises(LedgerError, match=held_by_b):
            ledger.finish_study("st-a", "A", {"stale": True}, now=13.0)
        assert ledger.study("st-a")["state"] == "running"

        assert ledger.heartbeat_study("st-a", "B", now=14.0, pid=222)
        ledger.finish_study("st-a", "B", {"ok": True}, now=15.0)
        row = ledger.study("st-a")
        assert (row["state"], row["result"], row["worker"], row["claims"]) == (
            "done", {"ok": True}, "B", 2,
        )
        assert not ledger.heartbeat_study("st-a", "B", now=16.0)


class TestCrossServerCancel:
    def test_cancel_through_another_server_kills_the_runner(
        self, tmp_path, monkeypatch
    ):
        plugins = tmp_path / "plugins"
        plugins.mkdir()
        (plugins / "slow_source.py").write_text(SLOW_SOURCE_PLUGIN)
        monkeypatch.syspath_prepend(str(plugins))
        monkeypatch.setenv(
            "PYTHONPATH",
            os.pathsep.join(
                filter(None, [str(plugins), os.environ.get("PYTHONPATH")])
            ),
        )
        state = tmp_path / "state"
        every = 0.5
        serving = StudyQueue(
            state, scale="smoke", heartbeat_every=every, imports=("slow_source",)
        )
        other = StudyQueue(state)
        study_id = serving.submit(slow_spec(delay_s=0.3, num_steps=60))
        serving.start()
        try:
            deadline = time.monotonic() + 60
            while True:
                row = other.open_ledger().study(study_id)
                if row["lease_pid"] not in (None, os.getpid()):
                    break  # the lease points at the runner
                assert time.monotonic() < deadline, "study never started"
                time.sleep(0.05)
            runner_pid = row["lease_pid"]

            assert other.cancel(study_id) == "running"
            cancelled_at = time.monotonic()
            while True:
                try:
                    os.kill(runner_pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() - cancelled_at < 3 * every, (
                    "the runner outlived a cancel through another server"
                )
                time.sleep(0.02)
        finally:
            serving.stop()
        assert other.status(study_id)["state"] == "cancelled"


def wait_for_state(queue: StudyQueue, study_id: str, state: str) -> dict:
    deadline = time.monotonic() + 30
    while (row := queue.open_ledger().study(study_id))["state"] != state:
        assert time.monotonic() < deadline, f"{study_id} never reached {state}"
        time.sleep(0.02)
    return row


class TestHolderIds:
    def test_queues_in_one_process_lease_under_different_ids(self, tmp_path):
        # A hand-edited row with an invalid spec is failed by whichever
        # thread leased it, which leaves that thread's holder id behind.
        holders = []
        for study_id in ("st-a", "st-b"):
            queue = StudyQueue(tmp_path, poll_every=0.05)
            queue.open_ledger().submit_study(study_id, {"bogus": 1}, time.time())
            queue.start()
            try:
                row = wait_for_state(queue, study_id, "failed")
            finally:
                queue.stop()
            assert "invalid spec" in row["error"]
            holders.append(row["worker"])
        host_pid = f"{socket.gethostname()}-{os.getpid()}-"
        assert all(holder.startswith(host_pid) for holder in holders)
        assert holders[0] != holders[1]


class TestParentWrittenFiles:
    def test_queue_file_re_leases_and_finishes_a_stale_study(self, tmp_path):
        path = tmp_path / "queue.sqlite"
        write_version_0(path, (
            "INSERT INTO studies (study_id, spec, state, submitted_at,"
            " started_at, lease_pid, heartbeat) VALUES (?, ?, ?, ?, ?, ?, ?)",
            ("st-old", json.dumps({"name": "old"}), "running", 0.0, 1.0, 4242, 1.0),
        ))
        ledger = RunLedger(path)
        assert user_version(path) == 2
        row = ledger.study("st-old")
        assert (row["state"], row["spec"], row["worker"], row["claims"]) == (
            "running", {"name": "old"}, None, 0,
        )
        assert ledger.claim_study("B", pid=7, now=100.0, stale_after=10.0) == "st-old"
        ledger.finish_study("st-old", "B", {"ok": True}, now=101.0)
        row = ledger.study("st-old")
        assert (row["state"], row["started_at"], row["claims"]) == ("done", 1.0, 1)
        ledger.close()

        migrated = path.read_bytes()
        RunLedger(path).close()
        assert path.read_bytes() == migrated

    def test_run_ledger_finishes_its_grid_like_a_serial_run(
        self, tmp_path, micro4_bundle
    ):
        jobs = two_job_grid(micro4_bundle)
        serial = run_grid(jobs, num_steps=10, num_repeats=2)
        path = tmp_path / "run.ledger"
        # 'u' finished before the upgrade; ('c1', 0) is leased by a
        # worker that died, ('c1', 1) was never claimed.
        write_version_0(
            path,
            *[
                (
                    "INSERT INTO tasks VALUES ('u', ?, 'done', ?)",
                    (r, json.dumps(encode_state(serial["u"].results[r]))),
                )
                for r in range(2)
            ],
            ("INSERT INTO task_leases (label, repeat, state) VALUES"
             " ('u', 0, 'done'), ('u', 1, 'done'), ('c1', 1, 'pending')", ()),
            ("INSERT INTO task_leases VALUES ('c1', 0, 'leased', 'dead', 4242,"
             " 1.0, 1)", ()),
        )
        ledger = RunLedger(path)
        assert user_version(path) == 2
        assert run_worker(
            jobs, ledger, num_steps=10, num_repeats=2, worker_id="w",
            stale_after=5.0,
        ) == 2
        for label in ("c1", "u"):
            for repeat, expected in enumerate(serial[label].results):
                got = ledger.load_result(label, repeat)
                assert np.array_equal(
                    got.reward_trace(), expected.reward_trace(), equal_nan=True
                )
        rows = {(r["label"], r["repeat"]): r for r in ledger.task_lease_rows()}
        assert (rows["c1", 0]["worker"], rows["c1", 0]["claims"]) == ("w", 2)
        assert all(row["state"] == "done" for row in rows.values())
        ledger.close()

        finished = path.read_bytes()
        RunLedger(path).close()
        assert path.read_bytes() == finished

    def test_version_1_checkpoint_resumes_to_the_serial_outcome(
        self, tmp_path, micro4_bundle
    ):
        space = JointSearchSpace(cell_encoding=micro4_bundle.cell_encoding)
        job = RepeatJob(
            label="combined",
            strategy_factory=lambda seed: CombinedSearch(space, seed=seed),
            evaluator_factory=lambda: build_evaluator(
                "database", unconstrained(micro4_bundle.bounds),
                bundle=micro4_bundle, platform=micro4_bundle.platform,
            ),
        )
        num_steps, every = 30, 4
        serial = run_grid([job], num_steps=num_steps, num_repeats=2)["combined"]

        class Capture:
            """Snapshot texts as a version-1 ledger stored them."""

            def __init__(self):
                self.texts = {}

            def load(self):
                return None

            def save(self, state):
                self.texts[state["steps_done"]] = _dumps(state)

        capture = Capture()
        job.strategy_factory(hash_seed("repeat", 0, 1)).run(
            job.evaluator_factory(), num_steps, checkpoint=capture,
            checkpoint_every=every,
        )
        config = {
            "num_steps": num_steps, "num_repeats": 2, "master_seed": 0,
            "batch_size": 1, "labels": ["combined"], "context": {},
        }
        path = tmp_path / "run.ledger"
        # Repeat 0 finished before the upgrade; repeat 1 is mid-run.
        write_version_1(
            path,
            ("INSERT INTO meta VALUES ('run_config', ?)",
             (json.dumps(config, sort_keys=True, separators=(",", ":")),)),
            ("INSERT INTO tasks VALUES ('combined', 0, 'done', ?)",
             (_dumps(serial.results[0]),)),
            ("INSERT INTO checkpoints VALUES ('combined', 1, 12, ?)",
             (capture.texts[12],)),
        )
        ledger = RunLedger(path)
        assert user_version(path) == 2
        with closing(sqlite3.connect(path)) as conn:
            texts = conn.execute(
                "SELECT result FROM tasks UNION ALL SELECT state FROM checkpoints"
            ).fetchall()
            rows = conn.execute(
                "SELECT repeat, COUNT(*) FROM archive_rows GROUP BY repeat"
            ).fetchall()
        assert all('"entry"' not in text for (text,) in texts)
        assert rows == [(0, num_steps), (1, 12)]
        archive = ledger.load_checkpoint("combined", 1)["strategy"]["archive"]
        assert np.array_equal(
            archive.reward_trace(), serial.results[1].reward_trace()[:12]
        )

        resumed = run_grid(
            [job], num_steps=num_steps, num_repeats=2, checkpoint_every=every,
            ledger=ledger,
        )["combined"]
        for got, expected in zip(resumed.results, serial.results):
            assert np.array_equal(got.reward_trace(), expected.reward_trace())
            assert [(e.spec.to_dict(), e.config) for e in got.archive.entries] == [
                (e.spec.to_dict(), e.config) for e in expected.archive.entries
            ]
        ledger.close()

        finished = path.read_bytes()
        RunLedger(path).close()
        assert path.read_bytes() == finished

    def test_concurrent_upgrade_only_stamps_the_version(self, tmp_path):
        # A second process opening a version-0 file after the first one
        # added the lease columns must not add them again.
        path = tmp_path / "queue.sqlite"
        RunLedger(path).close()
        with closing(sqlite3.connect(path)) as conn:
            conn.execute("PRAGMA user_version=0")
        RunLedger(path).close()
        assert user_version(path) == 2


class TestLeaseTiming:
    def test_study_queue_refuses_stale_after_inside_the_heartbeat(self, tmp_path):
        with pytest.raises(ValueError, match="heartbeat_every"):
            StudyQueue(tmp_path, stale_after=0.5)
        with pytest.raises(ValueError, match="poll_every"):
            StudyQueue(tmp_path, poll_every=0)

    def test_serve_cli_exits_2(self, tmp_path, monkeypatch, capsys):
        def serve_forever(server):
            raise AssertionError("served with a stale_after inside the heartbeat")

        monkeypatch.setattr(StudyServer, "serve_forever", serve_forever)
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["serve", "--state-dir", str(tmp_path), "--port", "0",
                      "--stale-after", "0.5"])
        assert excinfo.value.code == 2
        assert "heartbeat_every" in capsys.readouterr().err

    def test_run_worker_refuses_bad_timings(self, tmp_path):
        with pytest.raises(ValueError, match="stale_after"):
            run_worker([], tmp_path / "w.ledger", num_steps=1, num_repeats=1,
                       stale_after=-1.0)

    @pytest.mark.parametrize("flags", [
        ["--stale-after", "-1", "--heartbeat-every", "50", "--poll-every", "0"],
        ["--stale-after", "1", "--heartbeat-every", "5"],
        ["--poll-every", "0"],
    ])
    def test_worker_cli_refuses_bad_timings(self, tmp_path, capsys, flags):
        path = tmp_path / "bad.ledger"
        with pytest.raises(SystemExit) as excinfo:
            worker_main(["--ledger", str(path), *flags], prog="repro worker")
        assert excinfo.value.code == 2
        assert "must be" in capsys.readouterr().err
        assert not path.exists()  # refused before the ledger was touched
