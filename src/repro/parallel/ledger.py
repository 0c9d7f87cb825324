"""Crash-safe run ledger: checkpoint/resume for the search stack.

The paper's headline grids (Fig. 5/6, Table 2) repeat every
(strategy, scenario) experiment many times; at production scale a
sweep holds thousands of independent searches and a crash 90% through
must not cost the whole run.  :class:`RunLedger` is the persistence
layer behind ``run_grid(..., ledger=...)``:

* every (job label, repeat) task has a row in ``tasks`` — ``pending``
  until its search finishes, then ``done`` with the full serialized
  :class:`~repro.search.base.SearchResult` (archive + extras);
* an in-flight search checkpoints its strategy state every N ask/tell
  batches into ``checkpoints`` (RNG stream, archive, populations,
  policy weights, optimizer moments — whatever the strategy's
  ``state_dict`` returns);
* ``meta`` pins the run configuration (steps, repeats, master seed,
  batch size, job labels) so a ledger can never silently mix results
  from incompatible runs;
* ``studies`` is the serving layer's job queue (:mod:`repro.server`):
  submitted StudySpecs with a leased/heartbeat lifecycle, so a killed
  server's in-flight studies are re-leased — and resumed from their
  per-study ledgers — by the next server to open the same queue file;
* ``task_leases`` is the cluster backend's coordination table
  (:mod:`repro.parallel.cluster`): per-(label, repeat) leases with the
  same claim/heartbeat/stale-reissue lifecycle as ``studies``, but at
  task granularity — many worker processes (possibly on different
  machines sharing the ledger file) each atomically claim the next
  runnable task, heartbeat while searching it, and record its result;
  a SIGKILLed worker's leases go stale and are re-claimed, resuming
  from the task's last checkpoint.

On resume, ``run_grid`` loads ``done`` tasks instead of re-running
them and restarts interrupted tasks from their last checkpoint;
because evaluation is pure, the replayed batches reproduce exactly
what the crashed process computed and the resumed grid is
bit-identical to an uninterrupted one (see
``tests/integration/test_kill_resume.py``).

Every write is its own committed sqlite transaction, so a ``kill -9``
can lose at most the work since the last checkpoint.  Connections are
guarded by process id: a ledger object captured into a forked worker
transparently opens its own connection instead of reusing the
parent's (sqlite connections are not fork-safe), which lets serial
and process backends share one code path.  Concurrent writers (many
workers, one parent) serialize on sqlite's file lock via
``busy_timeout``; tasks never contend on the same row.

Serialization is tagged JSON: numpy arrays travel as base64-encoded
raw bytes (bit-exact), and the library's value objects (specs,
configs, metrics, archives, results) via their canonical dict forms.
"""

from __future__ import annotations

import base64
import json
import os
import sqlite3
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "LedgerCheckpoint",
    "LedgerError",
    "MemoryCheckpoint",
    "RunLedger",
    "STUDY_STATES",
    "TERMINAL_STUDY_STATES",
    "decode_state",
    "encode_state",
]

#: Matches the EvalCache: generous, because every write is one small
#: transaction and contention only comes from checkpoint bursts.
_BUSY_TIMEOUT_MS = 30_000

_SCHEMA = """
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

#: Study-queue lifecycle (see the queue methods on :class:`RunLedger`):
#: ``queued`` -> ``running`` (leased by a worker) -> one of the
#: terminal states.  A ``running`` study whose lease heartbeat goes
#: stale is claimable again — that is the whole crash-recovery story:
#: a SIGKILLed server leaves its in-flight studies ``running``, the
#: next server (same queue file) re-leases them, and the per-study run
#: ledger resumes the actual search from its checkpoints.
STUDY_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STUDY_STATES = ("done", "failed", "cancelled")


class LedgerError(RuntimeError):
    """A ledger cannot serve the requested run (mismatch, misuse)."""


# ---------------------------------------------------------------------------
# Tagged JSON state serialization
# ---------------------------------------------------------------------------
#
# The value-object imports live inside the codec functions: the
# evaluator layer imports ``repro.parallel`` (for EvalCache) while this
# module serializes the evaluator layer's types, so importing them at
# module scope would be circular.  ``sys.modules`` makes the per-call
# import free after the first.

def encode_state(obj: Any) -> Any:
    """Turn a state value into a JSON-ready tagged structure.

    Bit-exact for floats (JSON's shortest-repr round-trips IEEE-754
    doubles) and numpy arrays (raw little-endian bytes, base64).
    Handles the search stack's value objects plus tuples and dicts
    with non-string keys; rejects anything else loudly rather than
    persisting a lossy approximation.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return {
            "__t__": "ndarray",
            "dtype": obj.dtype.str,
            "shape": list(obj.shape),
            "data": base64.b64encode(np.ascontiguousarray(obj).tobytes()).decode(),
        }
    if isinstance(obj, tuple):
        return {"__t__": "tuple", "items": [encode_state(v) for v in obj]}
    if isinstance(obj, list):
        return [encode_state(v) for v in obj]
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj) and "__t__" not in obj:
            return {k: encode_state(v) for k, v in obj.items()}
        # Non-string keys (e.g. per-rung archives keyed by threshold)
        # or a literal "__t__" key: keep keys as tagged values.
        return {
            "__t__": "dict",
            "items": [[encode_state(k), encode_state(v)] for k, v in obj.items()],
        }
    # Value objects last: the plain values above are the bulk of every
    # state, and need not pay for these imports.
    from repro.accelerator.config import AcceleratorConfig
    from repro.core.archive import ArchiveEntry, SearchArchive
    from repro.core.metrics import Metrics
    from repro.hw.charm import CharmConfig
    from repro.nasbench.model_spec import ModelSpec
    from repro.search.base import SearchResult
    from repro.workloads.transformer import TransformerSpec

    if isinstance(obj, ModelSpec):
        return {"__t__": "spec", "spec": obj.to_dict()}
    if isinstance(obj, AcceleratorConfig):
        return {"__t__": "config", "config": obj.to_dict()}
    if isinstance(obj, TransformerSpec):
        return {"__t__": "transformer_spec", "spec": obj.to_dict()}
    if isinstance(obj, CharmConfig):
        return {"__t__": "charm_config", "config": obj.to_dict()}
    if isinstance(obj, Metrics):
        # Fields go through encode_state too: a custom accuracy source
        # may hand back numpy scalars, which json.dumps rejects raw.
        return {
            "__t__": "metrics",
            "accuracy": encode_state(obj.accuracy),
            "latency_s": encode_state(obj.latency_s),
            "area_mm2": encode_state(obj.area_mm2),
        }
    if isinstance(obj, ArchiveEntry):
        return {
            "__t__": "entry",
            "step": encode_state(obj.step),
            "spec": encode_state(obj.spec),
            "config": encode_state(obj.config),
            "metrics": encode_state(obj.metrics),
            "reward": encode_state(obj.reward),
            "feasible": encode_state(obj.feasible),
            "valid": encode_state(obj.valid),
            "phase": obj.phase,
        }
    if isinstance(obj, SearchArchive):
        return {
            "__t__": "archive",
            "entries": [encode_state(e) for e in obj.entries],
        }
    if isinstance(obj, SearchResult):
        return {
            "__t__": "result",
            "strategy": obj.strategy,
            "scenario": obj.scenario,
            "archive": encode_state(obj.archive),
            "extras": encode_state(obj.extras),
        }
    raise TypeError(f"cannot serialize {type(obj).__name__} into a ledger")


def decode_state(obj: Any) -> Any:
    """Inverse of :func:`encode_state`."""
    if isinstance(obj, list):
        return [decode_state(v) for v in obj]
    if not isinstance(obj, dict):
        return obj
    tag = obj.get("__t__")
    if tag is None:
        return {k: decode_state(v) for k, v in obj.items()}
    if tag == "ndarray":
        data = base64.b64decode(obj["data"])
        return np.frombuffer(data, dtype=np.dtype(obj["dtype"])).reshape(
            obj["shape"]
        ).copy()
    if tag == "tuple":
        return tuple(decode_state(v) for v in obj["items"])
    if tag == "dict":
        return {decode_state(k): decode_state(v) for k, v in obj["items"]}
    from repro.accelerator.config import AcceleratorConfig
    from repro.core.archive import ArchiveEntry, SearchArchive
    from repro.core.metrics import Metrics
    from repro.hw.charm import CharmConfig
    from repro.nasbench.model_spec import ModelSpec
    from repro.search.base import SearchResult
    from repro.workloads.transformer import TransformerSpec

    if tag == "spec":
        return ModelSpec.from_dict(obj["spec"])
    if tag == "config":
        return AcceleratorConfig.from_dict(obj["config"])
    if tag == "transformer_spec":
        return TransformerSpec.from_dict(obj["spec"])
    if tag == "charm_config":
        return CharmConfig.from_dict(obj["config"])
    if tag == "metrics":
        return Metrics(
            accuracy=obj["accuracy"],
            latency_s=obj["latency_s"],
            area_mm2=obj["area_mm2"],
        )
    if tag == "entry":
        return ArchiveEntry(
            step=obj["step"],
            spec=decode_state(obj["spec"]),
            config=decode_state(obj["config"]),
            metrics=decode_state(obj["metrics"]),
            reward=obj["reward"],
            feasible=obj["feasible"],
            valid=obj["valid"],
            phase=obj["phase"],
        )
    if tag == "archive":
        return SearchArchive(entries=[decode_state(e) for e in obj["entries"]])
    if tag == "result":
        return SearchResult(
            strategy=obj["strategy"],
            scenario=obj["scenario"],
            archive=decode_state(obj["archive"]),
            extras=decode_state(obj["extras"]),
        )
    raise ValueError(f"unknown state tag {tag!r}")


def _dumps(obj: Any) -> str:
    return json.dumps(encode_state(obj), separators=(",", ":"))


def _loads(text: str) -> Any:
    return decode_state(json.loads(text))


# ---------------------------------------------------------------------------
# The ledger
# ---------------------------------------------------------------------------

class RunLedger:
    """Sqlite-backed record of a grid run's tasks and checkpoints.

    ``path=None`` keeps the ledger in memory — handy in tests and for
    serial runs that only want same-process checkpointing, but it
    cannot cross a fork (the process backend requires a file path).
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._pid = os.getpid()
        self._conn = self._open()

    # -- lifecycle ---------------------------------------------------------
    def _open(self) -> sqlite3.Connection:
        if self.path is None:
            conn = sqlite3.connect(":memory:")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.path)
            conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
        conn.executescript(_SCHEMA)
        conn.commit()
        return conn

    def _db(self) -> sqlite3.Connection:
        """The connection, reopened transparently after a fork.

        Sqlite connections are not fork-safe: a forked worker that
        inherits the parent's connection shares its file descriptor
        and transaction state.  Guarding every access on the creating
        pid lets one ledger object be captured into worker closures
        and still give every process a private connection.
        """
        if os.getpid() != self._pid:
            if self.path is None:
                raise LedgerError(
                    "an in-memory ledger cannot cross a fork; give the "
                    "ledger a file path to use it with the process backend"
                )
            # Abandon (never close) the inherited connection object —
            # closing it could flush parent transaction state.
            self._conn = self._open()
            self._pid = os.getpid()
        return self._conn

    def close(self) -> None:
        if os.getpid() == self._pid:
            self._conn.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- run configuration -------------------------------------------------
    def begin_run(self, config: dict) -> None:
        """Pin (or validate) the run configuration this ledger serves.

        The first ``begin_run`` stores ``config``; later calls must
        present an identical one — resuming a ledger under different
        steps/seeds/batch sizes would stitch together incompatible
        results, so it raises :class:`LedgerError` instead.
        """
        text = json.dumps(config, sort_keys=True, separators=(",", ":"))
        db = self._db()
        row = db.execute(
            "SELECT value FROM meta WHERE key='run_config'"
        ).fetchone()
        if row is None:
            db.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('run_config', ?)",
                (text,),
            )
            db.commit()
            return
        if row[0] != text:
            raise LedgerError(
                "ledger was created for a different run configuration:\n"
                f"  ledger : {row[0]}\n  request: {text}\n"
                "use a fresh ledger path (or rerun with the original "
                "steps/repeats/seed/batch-size/jobs)"
            )

    def run_config(self) -> dict | None:
        row = self._db().execute(
            "SELECT value FROM meta WHERE key='run_config'"
        ).fetchone()
        return json.loads(row[0]) if row is not None else None

    # -- task results ------------------------------------------------------
    def load_result(self, label: str, repeat: int) -> SearchResult | None:
        """The completed result of one task, or ``None`` if not done."""
        row = self._db().execute(
            "SELECT result FROM tasks WHERE label=? AND repeat=? AND status='done'",
            (label, repeat),
        ).fetchone()
        return _loads(row[0]) if row is not None else None

    def record_done(self, label: str, repeat: int, result: SearchResult) -> None:
        """Persist a finished task and drop its checkpoint atomically."""
        db = self._db()
        db.execute(
            "INSERT OR REPLACE INTO tasks (label, repeat, status, result)"
            " VALUES (?, ?, 'done', ?)",
            (label, repeat, _dumps(result)),
        )
        db.execute(
            "DELETE FROM checkpoints WHERE label=? AND repeat=?", (label, repeat)
        )
        db.commit()

    # -- checkpoints -------------------------------------------------------
    def save_checkpoint(self, label: str, repeat: int, state: dict) -> None:
        self._db().execute(
            "INSERT OR REPLACE INTO checkpoints (label, repeat, steps_done, state)"
            " VALUES (?, ?, ?, ?)",
            (label, repeat, int(state.get("steps_done", 0)), _dumps(state)),
        )
        self._db().commit()

    def load_checkpoint(self, label: str, repeat: int) -> dict | None:
        row = self._db().execute(
            "SELECT state FROM checkpoints WHERE label=? AND repeat=?",
            (label, repeat),
        ).fetchone()
        return _loads(row[0]) if row is not None else None

    def checkpoint(self, label: str, repeat: int) -> "LedgerCheckpoint":
        """A :class:`~repro.search.base.Checkpoint` bound to one task."""
        return LedgerCheckpoint(self, label, repeat)

    # -- study queue -------------------------------------------------------
    #
    # The serving layer (:mod:`repro.server`) keeps its whole queue in
    # the ledger so queue state shares the crash-safety story of task
    # results: every transition is one committed transaction, and a
    # killed server loses nothing but its in-memory worker pool.
    # Rows hold the submitted StudySpec as JSON; the actual search
    # state lives in a per-study run ledger (tasks/checkpoints above).

    def submit_study(
        self, study_id: str, spec: dict, now: float
    ) -> None:
        """Enqueue one study (``spec`` is a ``StudySpec.to_dict()``)."""
        db = self._db()
        try:
            db.execute(
                "INSERT INTO studies (study_id, spec, state, submitted_at)"
                " VALUES (?, ?, 'queued', ?)",
                (study_id, json.dumps(spec, separators=(",", ":")), now),
            )
        except sqlite3.IntegrityError:
            raise LedgerError(f"study {study_id!r} is already queued") from None
        db.commit()

    def study(self, study_id: str) -> dict | None:
        """One study's queue row as a dict (spec parsed), or ``None``."""
        row = self._db().execute(
            "SELECT study_id, spec, state, submitted_at, started_at,"
            " finished_at, lease_pid, heartbeat, result, error"
            " FROM studies WHERE study_id=?",
            (study_id,),
        ).fetchone()
        return self._study_row(row) if row is not None else None

    def studies(self) -> list[dict]:
        """Every queue row, oldest submission first."""
        rows = self._db().execute(
            "SELECT study_id, spec, state, submitted_at, started_at,"
            " finished_at, lease_pid, heartbeat, result, error"
            " FROM studies ORDER BY submitted_at, study_id"
        ).fetchall()
        return [self._study_row(row) for row in rows]

    @staticmethod
    def _study_row(row) -> dict:
        return {
            "id": row[0],
            "spec": json.loads(row[1]),
            "state": row[2],
            "submitted_at": row[3],
            "started_at": row[4],
            "finished_at": row[5],
            "lease_pid": row[6],
            "heartbeat": row[7],
            "result": json.loads(row[8]) if row[8] else None,
            "error": row[9],
        }

    def claim_study(
        self, pid: int, now: float, stale_after: float
    ) -> str | None:
        """Atomically lease the next runnable study; ``None`` if idle.

        Runnable means ``queued``, or ``running`` with a lease
        heartbeat older than ``stale_after`` seconds — i.e. abandoned
        by a crashed server and due for resumption.  The lease is
        taken under ``BEGIN IMMEDIATE`` so concurrent workers (threads
        or whole servers sharing one queue file) never claim the same
        study twice.
        """
        db = self._db()
        db.execute("BEGIN IMMEDIATE")
        try:
            row = db.execute(
                "SELECT study_id FROM studies WHERE state='queued'"
                " OR (state='running' AND (heartbeat IS NULL OR heartbeat < ?))"
                " ORDER BY submitted_at, study_id LIMIT 1",
                (now - stale_after,),
            ).fetchone()
            if row is None:
                db.execute("ROLLBACK")
                return None
            db.execute(
                "UPDATE studies SET state='running', lease_pid=?,"
                " heartbeat=?, started_at=COALESCE(started_at, ?)"
                " WHERE study_id=?",
                (pid, now, now, row[0]),
            )
            db.execute("COMMIT")
        except BaseException:
            db.execute("ROLLBACK")
            raise
        return row[0]

    def heartbeat_study(
        self, study_id: str, now: float, pid: int | None = None
    ) -> None:
        """Refresh a leased study's liveness stamp.

        ``pid`` (when given) re-points ``lease_pid`` at the process
        actually executing the study — the server leases under its own
        pid but delegates to a runner subprocess, and cancellation /
        the durability tests need the runner's process group, not the
        server's.
        """
        db = self._db()
        if pid is None:
            db.execute(
                "UPDATE studies SET heartbeat=?"
                " WHERE study_id=? AND state='running'",
                (now, study_id),
            )
        else:
            db.execute(
                "UPDATE studies SET heartbeat=?, lease_pid=?"
                " WHERE study_id=? AND state='running'",
                (now, pid, study_id),
            )
        db.commit()

    def finish_study(self, study_id: str, result: dict, now: float) -> None:
        """Mark a running study ``done`` with its result summary."""
        self._finish(study_id, "done", now, result=result)

    def fail_study(self, study_id: str, error: str, now: float) -> None:
        """Mark a running study ``failed`` with a diagnostic."""
        self._finish(study_id, "failed", now, error=error)

    def _finish(
        self,
        study_id: str,
        state: str,
        now: float,
        result: dict | None = None,
        error: str | None = None,
    ) -> None:
        db = self._db()
        changed = db.execute(
            "UPDATE studies SET state=?, finished_at=?, result=?, error=?"
            " WHERE study_id=? AND state='running'",
            (
                state,
                now,
                json.dumps(result, separators=(",", ":")) if result is not None else None,
                error,
                study_id,
            ),
        ).rowcount
        db.commit()
        if not changed:
            row = self.study(study_id)
            raise LedgerError(
                f"cannot mark study {study_id!r} {state}: "
                + ("unknown study" if row is None else f"state is {row['state']!r}")
            )

    def cancel_study(self, study_id: str, now: float) -> str | None:
        """Cancel a ``queued``/``running`` study; returns its prior state.

        Terminal studies are left untouched (``None`` is returned) —
        cancellation must never overwrite a concurrently recorded
        ``done``/``failed`` outcome.  Killing the worker actually
        running the study is the server's job; the queue only flips
        the state.
        """
        db = self._db()
        db.execute("BEGIN IMMEDIATE")
        try:
            row = db.execute(
                "SELECT state FROM studies WHERE study_id=?"
                " AND state IN ('queued', 'running')",
                (study_id,),
            ).fetchone()
            if row is None:
                db.execute("ROLLBACK")
                return None
            db.execute(
                "UPDATE studies SET state='cancelled', finished_at=?"
                " WHERE study_id=?",
                (now, study_id),
            )
            db.execute("COMMIT")
        except BaseException:
            db.execute("ROLLBACK")
            raise
        return row[0]

    # -- cluster task leases -----------------------------------------------
    #
    # The cluster backend (:mod:`repro.parallel.cluster`) promotes the
    # ledger from checkpoint store to coordination substrate: every
    # (label, repeat) task gets a lease row, worker processes claim
    # the next runnable one under ``BEGIN IMMEDIATE`` (never two
    # claimants), heartbeat while searching, and record results
    # through :meth:`record_done_leased` — which refuses stragglers
    # whose lease was re-issued, so no task is recorded twice.

    def seed_task_leases(self, tasks: list[tuple[str, int]]) -> None:
        """Ensure a lease row exists for every (label, repeat) task.

        Idempotent: existing rows (live leases of an in-flight run, or
        ``done`` markers of a finished one) are left untouched, and
        rows whose task already completed — e.g. under a *different*
        backend before a resume — are marked ``done`` so the cluster's
        progress accounting converges.
        """
        db = self._db()
        db.execute("BEGIN IMMEDIATE")
        try:
            db.executemany(
                "INSERT OR IGNORE INTO task_leases (label, repeat) VALUES (?, ?)",
                [(label, int(repeat)) for label, repeat in tasks],
            )
            db.execute(
                "UPDATE task_leases SET state='done' WHERE state!='done'"
                " AND EXISTS (SELECT 1 FROM tasks t WHERE t.label=task_leases.label"
                " AND t.repeat=task_leases.repeat AND t.status='done')"
            )
            db.execute("COMMIT")
        except BaseException:
            db.execute("ROLLBACK")
            raise

    def claim_task(
        self, worker: str, pid: int, now: float, stale_after: float
    ) -> tuple[str, int] | None:
        """Atomically lease the next runnable task; ``None`` if none.

        Runnable means ``pending``, or ``leased`` with a heartbeat
        older than ``stale_after`` seconds (abandoned by a crashed or
        stalled worker, due for re-issue).  Tasks already ``done`` in
        the ``tasks`` table are never claimable.  Deterministic claim
        order (label, then repeat) keeps cluster scheduling easy to
        reason about, though results never depend on it.
        """
        db = self._db()
        db.execute("BEGIN IMMEDIATE")
        try:
            row = db.execute(
                "SELECT label, repeat FROM task_leases"
                " WHERE (state='pending' OR (state='leased'"
                "   AND (heartbeat IS NULL OR heartbeat < ?)))"
                " AND NOT EXISTS (SELECT 1 FROM tasks t"
                "   WHERE t.label=task_leases.label"
                "   AND t.repeat=task_leases.repeat AND t.status='done')"
                " ORDER BY label, repeat LIMIT 1",
                (now - stale_after,),
            ).fetchone()
            if row is None:
                db.execute("ROLLBACK")
                return None
            db.execute(
                "UPDATE task_leases SET state='leased', worker=?, lease_pid=?,"
                " heartbeat=?, claims=claims+1 WHERE label=? AND repeat=?",
                (worker, pid, now, row[0], row[1]),
            )
            db.execute("COMMIT")
        except BaseException:
            db.execute("ROLLBACK")
            raise
        return (row[0], int(row[1]))

    def heartbeat_task(
        self, label: str, repeat: int, worker: str, now: float
    ) -> bool:
        """Refresh a held lease's liveness stamp.

        Returns ``False`` when the lease is no longer ours (re-issued
        after going stale) — the worker should abandon the task; the
        new holder owns it now, and :meth:`record_done_leased` would
        refuse our result anyway.
        """
        db = self._db()
        changed = db.execute(
            "UPDATE task_leases SET heartbeat=?"
            " WHERE label=? AND repeat=? AND worker=? AND state='leased'",
            (now, label, int(repeat), worker),
        ).rowcount
        db.commit()
        return bool(changed)

    def record_done_leased(
        self, label: str, repeat: int, worker: str, result: "SearchResult"
    ) -> bool:
        """Persist a leased task's result iff the lease is still ours.

        One transaction checks lease ownership, writes the ``tasks``
        row, drops the task's checkpoint, and marks the lease ``done``.
        A straggler whose lease was re-issued (its heartbeat went
        stale and another worker claimed the task) gets ``False`` and
        must discard its result — the current holder will record the
        bit-identical one — so no (label, repeat) is ever recorded by
        two workers.
        """
        db = self._db()
        db.execute("BEGIN IMMEDIATE")
        try:
            row = db.execute(
                "SELECT worker FROM task_leases"
                " WHERE label=? AND repeat=? AND state='leased'",
                (label, int(repeat)),
            ).fetchone()
            if row is None or row[0] != worker:
                db.execute("ROLLBACK")
                return False
            db.execute(
                "INSERT OR REPLACE INTO tasks (label, repeat, status, result)"
                " VALUES (?, ?, 'done', ?)",
                (label, int(repeat), _dumps(result)),
            )
            db.execute(
                "DELETE FROM checkpoints WHERE label=? AND repeat=?",
                (label, int(repeat)),
            )
            db.execute(
                "UPDATE task_leases SET state='done' WHERE label=? AND repeat=?",
                (label, int(repeat)),
            )
            db.execute("COMMIT")
        except BaseException:
            db.execute("ROLLBACK")
            raise
        return True

    def cluster_progress(self) -> dict[str, int]:
        """Lease-state counts: total / pending / leased / done."""
        counts = {"pending": 0, "leased": 0, "done": 0}
        for state, count in self._db().execute(
            "SELECT state, COUNT(*) FROM task_leases GROUP BY state"
        ):
            counts[state] = int(count)
        counts["total"] = sum(counts.values())
        return counts

    def task_lease_rows(self) -> list[dict]:
        """Every lease row as a dict, (label, repeat) order."""
        rows = self._db().execute(
            "SELECT label, repeat, state, worker, lease_pid, heartbeat, claims"
            " FROM task_leases ORDER BY label, repeat"
        ).fetchall()
        return [
            {
                "label": row[0],
                "repeat": int(row[1]),
                "state": row[2],
                "worker": row[3],
                "lease_pid": row[4],
                "heartbeat": row[5],
                "claims": int(row[6]),
            }
            for row in rows
        ]

    # -- execution records -------------------------------------------------
    def record_execution(self, entry: dict) -> None:
        """Append one backend-execution record to the run's history.

        Entries come from :meth:`ExecutionBackend.describe_execution
        <repro.parallel.pool.ExecutionBackend.describe_execution>` —
        the requested backend name plus what *effectively* ran (the
        process backend degrades to serial where ``fork`` is
        unavailable).  A resumed or served study therefore reports
        which backend actually executed each of its runs, not just
        what its spec asked for.
        """
        db = self._db()
        db.execute("BEGIN IMMEDIATE")
        try:
            row = db.execute(
                "SELECT value FROM meta WHERE key='executions'"
            ).fetchone()
            entries = json.loads(row[0]) if row is not None else []
            entries.append(entry)
            db.execute(
                "INSERT OR REPLACE INTO meta (key, value)"
                " VALUES ('executions', ?)",
                (json.dumps(entries, separators=(",", ":")),),
            )
            db.execute("COMMIT")
        except BaseException:
            db.execute("ROLLBACK")
            raise

    def executions(self) -> list[dict]:
        """Every recorded backend execution, oldest first."""
        row = self._db().execute(
            "SELECT value FROM meta WHERE key='executions'"
        ).fetchone()
        return json.loads(row[0]) if row is not None else []

    # -- reporting ---------------------------------------------------------
    def task_statuses(self) -> dict[str, dict[str, int]]:
        """Per-label progress: finished repeats and in-flight checkpoints.

        The per-job progress a study server reports.  ``tasks`` rows
        only exist once a repeat finishes, so per-label *totals* come
        from the pinned run configuration (``run_config()['labels']``
        x ``num_repeats``), not from here.
        """
        db = self._db()
        out: dict[str, dict[str, int]] = {}
        for label, done in db.execute(
            "SELECT label, COUNT(*) FROM tasks WHERE status='done' GROUP BY label"
        ):
            out[label] = {"done": int(done), "checkpointed": 0, "checkpointed_steps": 0}
        for label, count, steps in db.execute(
            "SELECT label, COUNT(*), COALESCE(SUM(steps_done), 0)"
            " FROM checkpoints GROUP BY label"
        ):
            entry = out.setdefault(
                label, {"done": 0, "checkpointed": 0, "checkpointed_steps": 0}
            )
            entry["checkpointed"] = int(count)
            entry["checkpointed_steps"] = int(steps)
        return out

    def done_results(self, label: str) -> list["SearchResult"]:
        """Every completed result under one job label, repeat order."""
        rows = self._db().execute(
            "SELECT result FROM tasks WHERE label=? AND status='done'"
            " ORDER BY repeat",
            (label,),
        ).fetchall()
        return [_loads(row[0]) for row in rows]

    def progress(self) -> dict:
        """Counts for resuming humans: done / checkpointed / steps."""
        db = self._db()
        done = db.execute(
            "SELECT COUNT(*) FROM tasks WHERE status='done'"
        ).fetchone()[0]
        checkpointed, steps = db.execute(
            "SELECT COUNT(*), COALESCE(SUM(steps_done), 0) FROM checkpoints"
        ).fetchone()
        return {
            "done": int(done),
            "checkpointed": int(checkpointed),
            "checkpointed_steps": int(steps),
        }


class LedgerCheckpoint:
    """Checkpoint handle binding a ledger to one (label, repeat) task.

    Implements the (duck-typed) :class:`repro.search.base.Checkpoint`
    interface.
    """

    def __init__(self, ledger: RunLedger, label: str, repeat: int) -> None:
        self.ledger = ledger
        self.label = label
        self.repeat = repeat

    def load(self) -> dict | None:
        return self.ledger.load_checkpoint(self.label, self.repeat)

    def save(self, state: dict) -> None:
        self.ledger.save_checkpoint(self.label, self.repeat, state)


class MemoryCheckpoint:
    """In-process checkpoint that snapshots via the ledger serializer.

    Serializing on ``save`` gives the same snapshot/aliasing semantics
    as the sqlite-backed handle (the strategy keeps mutating its state
    after a save), which makes it the reference checkpoint for tests.
    """

    def __init__(self) -> None:
        self._blob: str | None = None
        self.saves = 0

    def load(self) -> dict | None:
        return _loads(self._blob) if self._blob is not None else None

    def save(self, state: dict) -> None:
        self._blob = _dumps(state)
        self.saves += 1
