"""The ledger-backed study queue and its worker pool.

:class:`StudyQueue` owns a *state directory* and nothing else::

    <state_dir>/queue.sqlite            the queue itself (a RunLedger)
    <state_dir>/studies/<id>.ledger     per-study run ledger (tasks,
                                        checkpoints, pinned spec)
    <state_dir>/studies/<id>.log        the study runner's output
    <state_dir>/cache/shard-<h>.sqlite  shared EvalCache, sharded by
                                        (evaluator, hardware) identity

Every queue transition — submit, lease, heartbeat, finish, cancel —
is one committed sqlite transaction (see
:meth:`repro.parallel.RunLedger.submit_study` and friends), so the
queue inherits the ledger's crash-safety story: a SIGKILLed server
loses only its in-memory worker pool.  On the next boot the workers
re-lease every ``running`` study whose heartbeat went stale and the
per-study ledger resumes the search from its last checkpoint —
bit-identical to an uninterrupted run (the kill/resume guarantee
``run_grid`` already proves for local runs).

Studies execute in **runner subprocesses** (``python -m
repro.server.runner``), each in its own session/process group.  That
buys two things threads cannot: cancellation is a real ``killpg`` (a
study stuck in native code still dies), and a crashing study can
never take the server down with it.  Worker threads only lease,
spawn, heartbeat, and reconcile, each under its own lease holder id
(``<host>-<pid>-<thread name>``): once a study is cancelled (through
any server sharing the queue file) or re-leased, its holder's next
heartbeat is refused and the holder kills its runner.

Sqlite connections are neither thread- nor fork-safe, so no
:class:`~repro.parallel.RunLedger` instance ever crosses a thread
boundary here: every public method opens a fresh ledger per call and
each worker thread owns one for its lifetime.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.core.study import StudySpec, new_study_id
from repro.parallel.ledger import LedgerError, RunLedger, check_lease_timing

__all__ = ["StudyQueue"]


class StudyQueue:
    """Durable study queue + worker pool over one state directory.

    ``scale`` (a preset name) and ``imports`` (plugin modules) are
    forwarded to every runner subprocess; ``stale_after`` is how many
    seconds a ``running`` study's heartbeat may age before another
    worker treats it as abandoned and re-leases it (timings go through
    :func:`~repro.parallel.ledger.check_lease_timing`).
    """

    def __init__(
        self,
        state_dir: str | Path,
        scale: str | None = None,
        workers: int = 1,
        poll_every: float = 0.25,
        heartbeat_every: float = 1.0,
        stale_after: float = 15.0,
        imports: tuple[str, ...] = (),
    ) -> None:
        check_lease_timing(stale_after, heartbeat_every, poll_every)
        self.state_dir = Path(state_dir)
        self.queue_path = self.state_dir / "queue.sqlite"
        self.studies_dir = self.state_dir / "studies"
        self.cache_dir = self.state_dir / "cache"
        self.scale = scale
        self.workers = max(1, int(workers))
        self.poll_every = float(poll_every)
        self.heartbeat_every = float(heartbeat_every)
        self.stale_after = float(stale_after)
        self.imports = tuple(imports)
        # Plugins must be live in *this* process too, not just the
        # runners: submit-time validation resolves accuracy sources and
        # hardware names against the registries plugins populate.
        for module in self.imports:
            importlib.import_module(module)
        self.studies_dir.mkdir(parents=True, exist_ok=True)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        #: study_id -> live runner Popen, for cancel/stop (lock-guarded).
        self._procs: dict[str, subprocess.Popen] = {}
        self._lock = threading.Lock()
        # Materialize the queue schema eagerly so a server that binds
        # its port has a working queue file before the first request.
        self.open_ledger().studies()

    # -- paths ---------------------------------------------------------
    def open_ledger(self) -> RunLedger:
        """A fresh queue-ledger handle (never share one across threads)."""
        return RunLedger(self.queue_path)

    def study_ledger_path(self, study_id: str) -> Path:
        return self.studies_dir / f"{study_id}.ledger"

    def study_log_path(self, study_id: str) -> Path:
        return self.studies_dir / f"{study_id}.log"

    def cache_shard_path(self, spec: StudySpec) -> Path:
        """The EvalCache shard for one spec's evaluation identity.

        Shards are keyed by the (evaluator, hardware) spec dicts — the
        fields that determine cache namespaces — so studies with the
        same evaluation semantics warm-start each other while foreign
        ones never contend on one sqlite file.
        """
        data = spec.to_dict()
        identity = json.dumps(
            {"evaluator": data.get("evaluator"), "hardware": data.get("hardware")},
            sort_keys=True,
            separators=(",", ":"),
        )
        digest = hashlib.md5(identity.encode()).hexdigest()[:10]
        return self.cache_dir / f"shard-{digest}.sqlite"

    # -- queue API (any thread) ----------------------------------------
    def submit(self, spec_dict: dict) -> str:
        """Validate and enqueue one spec; returns the new study id.

        Raises :class:`repro.core.study.StudyError` on an invalid
        document (the HTTP layer turns that into a 400 naming the
        offending field).  The *normalized* ``to_dict`` form is what
        gets queued, so the runner re-parses exactly what validation
        approved.
        """
        spec = StudySpec.from_dict(spec_dict)
        study_id = new_study_id()
        self.open_ledger().submit_study(study_id, spec.to_dict(), time.time())
        return study_id

    def cancel(self, study_id: str) -> str | None:
        """Cancel a queued/running study; returns its prior state.

        ``None`` means the study is unknown or already terminal (the
        caller distinguishes via :meth:`status`).  A study running
        under *this* server is killed outright; one leased by another
        server just flips state, and that server kills its runner when
        its next heartbeat is refused.
        """
        prior = self.open_ledger().cancel_study(study_id, time.time())
        if prior == "running":
            with self._lock:
                proc = self._procs.get(study_id)
            if proc is not None:
                _kill_group(proc)
        return prior

    def list_studies(self) -> list[dict]:
        """Brief docs for every queue row, oldest submission first."""
        return [self._brief(row) for row in self.open_ledger().studies()]

    def status(self, study_id: str) -> dict | None:
        """The full status document for one study (``None`` if unknown)."""
        row = self.open_ledger().study(study_id)
        if row is None:
            return None
        doc = self._brief(row)
        doc["spec"] = row["spec"]
        doc["result"] = row["result"]
        doc["error"] = row["error"]
        doc["progress"] = self._progress(study_id)
        return doc

    @staticmethod
    def _brief(row: dict) -> dict:
        return {
            "id": row["id"],
            "name": row["spec"].get("name"),
            "state": row["state"],
            "submitted_at": row["submitted_at"],
            "started_at": row["started_at"],
            "finished_at": row["finished_at"],
            "pid": row["lease_pid"],
        }

    def _progress(self, study_id: str) -> dict:
        """Per-job progress + partial outcomes from the study ledger.

        Totals come from the pinned run configuration (``labels`` x
        ``num_repeats``) — ``tasks`` rows only exist once a repeat
        finishes.  ``best_rewards`` lists the best reward of each
        *finished* repeat (``None`` for repeats with no feasible
        point), so a watcher sees outcomes accrue before the study is
        done.  ``executions`` is the ledger's record of which
        execution backend actually ran each attempt (requested vs
        effective — a resumed study may have fallen back to serial,
        or been picked up by a different backend than the first
        attempt used).
        """
        path = self.study_ledger_path(study_id)
        empty = {"jobs": {}, "done_repeats": 0, "total_repeats": None,
                 "executions": []}
        if not path.exists():
            return empty
        ledger = RunLedger(path)
        config = ledger.run_config() or {}
        statuses = ledger.task_statuses()
        labels = config.get("labels") or sorted(statuses)
        repeats = config.get("num_repeats")
        jobs: dict[str, dict] = {}
        done_repeats = 0
        for label in labels:
            counts = statuses.get(
                label, {"done": 0, "checkpointed": 0, "checkpointed_steps": 0}
            )
            jobs[label] = {
                "done": counts["done"],
                "total": repeats,
                "checkpointed_steps": counts["checkpointed_steps"],
                "best_rewards": ledger.best_rewards(label),
            }
            done_repeats += counts["done"]
        return {
            "jobs": jobs,
            "done_repeats": done_repeats,
            "total_repeats": repeats * len(labels) if repeats else None,
            "executions": ledger.executions(),
        }

    # -- worker pool ---------------------------------------------------
    def start(self) -> None:
        """Spin up the worker threads (idempotent while running)."""
        if self._threads:
            return
        self._stop.clear()
        for index in range(self.workers):
            # The name goes into the thread's lease holder id, which two
            # queues in one process must not share.
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"study-worker-{id(self):x}-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        """Kill live runners and join the workers.

        Interrupted studies are *left* ``running`` in the queue — with
        heartbeats now going stale, the next :meth:`start` (this
        process or a future one) re-leases and resumes them.  That is
        deliberate: stop is indistinguishable from a crash, and resume
        must work identically for both.
        """
        self._stop.set()
        with self._lock:
            procs = list(self._procs.values())
        for proc in procs:
            _kill_group(proc)
        for thread in self._threads:
            thread.join(timeout=10)
        self._threads.clear()

    def _worker_loop(self) -> None:
        ledger = self.open_ledger()
        name = threading.current_thread().name
        worker = f"{socket.gethostname()}-{os.getpid()}-{name}"
        while not self._stop.is_set():
            study_id = ledger.claim_study(
                worker, os.getpid(), time.time(), self.stale_after
            )
            if study_id is None:
                self._stop.wait(self.poll_every)
                continue
            self._run_one(ledger, worker, study_id)

    def _run_one(self, ledger: RunLedger, worker: str, study_id: str) -> None:
        """Spawn the runner for one study leased to ``worker``; shepherd it."""
        try:
            spec = StudySpec.from_dict(ledger.study(study_id)["spec"])
        except Exception as err:  # hand-edited queue row; submit validated
            with contextlib.suppress(LedgerError):
                ledger.fail_study(study_id, worker, f"invalid spec: {err}", time.time())
            return
        cmd = [
            sys.executable,
            "-m",
            "repro.server.runner",
            "--queue",
            str(self.queue_path),
            "--study-id",
            study_id,
            "--worker",
            worker,
            "--ledger",
            str(self.study_ledger_path(study_id)),
            "--cache",
            str(self.cache_shard_path(spec)),
        ]
        if self.scale:
            cmd += ["--scale", self.scale]
        for module in self.imports:
            cmd += ["--import", module]
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = (
            src_root + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src_root
        )
        log_path = self.study_log_path(study_id)
        with open(log_path, "ab") as log_file:
            # Own session => own process group: killpg reaches the
            # runner and any process-pool children it forked, and the
            # runner outlives a crashing server (its last checkpoint
            # still lands before the stale lease is reclaimed).
            proc = subprocess.Popen(
                cmd,
                stdout=log_file,
                stderr=subprocess.STDOUT,
                start_new_session=True,
                env=env,
            )
        with self._lock:
            self._procs[study_id] = proc
        try:
            while True:
                held = ledger.heartbeat_study(
                    study_id, worker, time.time(), pid=proc.pid
                )
                if not held or self._stop.is_set():
                    # Refused: cancelled, or re-leased after this server
                    # went stale; the row is its new holder's.  On stop
                    # it stays 'running' and is reclaimed on next boot.
                    _kill_group(proc)
                    proc.wait()
                    return
                # Wake the moment the runner exits, so the next study
                # is claimed without sleeping out the tick.
                try:
                    proc.wait(timeout=self.heartbeat_every)
                    break
                except subprocess.TimeoutExpired:
                    pass
        finally:
            with self._lock:
                self._procs.pop(study_id, None)
        if self._stop.is_set():
            return  # stop() killed the runner; the row stays 'running'
        # The runner exited on its own.  If it died without reporting
        # (segfault, OOM kill, unhandled exit), record the failure with
        # its log tail; a refusal means it did report, or another
        # holder's word stands.
        message = f"runner exited with code {proc.returncode}"
        tail = _log_tail(log_path)
        if tail:
            message += "\n" + tail
        with contextlib.suppress(LedgerError):
            ledger.fail_study(study_id, worker, message, time.time())


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL a runner's whole process group (best effort)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        try:
            proc.kill()
        except ProcessLookupError:
            pass


def _log_tail(path: Path, limit: int = 2000) -> str:
    try:
        return path.read_text(errors="replace")[-limit:].strip()
    except OSError:
        return ""
