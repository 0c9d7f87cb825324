"""Crash-safe run ledger: checkpoint/resume for the search stack.

The paper's headline grids (Fig. 5/6, Table 2) repeat every
(strategy, scenario) experiment many times; at production scale a
sweep holds thousands of independent searches and a crash 90% through
must not cost the whole run.  :class:`RunLedger` is the persistence
layer behind ``run_grid(..., ledger=...)``:

* every (job label, repeat) task has a row in ``tasks`` — ``pending``
  until its search finishes, then ``done`` with its serialized
  :class:`~repro.search.base.SearchResult` minus the archive's entries
  (strategy, scenario, extras);
* an in-flight search checkpoints its strategy state every N ask/tell
  batches into ``checkpoints`` (RNG stream, populations, policy
  weights, optimizer moments — whatever the strategy's ``state_dict``
  returns), again minus the archive's entries;
* ``archive_rows`` holds those entries, one row per archived step,
  keyed (label, repeat, step).  A task's archive only grows by
  appending, so each save writes just the entries no earlier save
  stored, and a load rebuilds the archive from the first
  ``archive_len`` rows: a checkpoint costs the same at step 10 as at
  step 10,000;
* ``meta`` pins the run configuration (steps, repeats, master seed,
  batch size, job labels) so a ledger can never silently mix results
  from incompatible runs;
* ``studies`` (the :mod:`repro.server` job queue, one row per study)
  and ``task_leases`` (the :mod:`repro.parallel.cluster` coordination
  table, one row per task) are leased by one claim, one heartbeat and
  one end (:class:`_LeaseTable`).  A claim takes the oldest waiting
  row, or one whose holder (a server, a worker on any machine sharing
  the file) died and let its heartbeat go stale; the work resumes from
  its checkpoints.  Heartbeats and the terminal write name the holder
  and are refused once the lease has moved on (re-issued, cancelled).

``PRAGMA user_version`` versions the schema; opening an older file
upgrades it in one transaction: a version-0 file gains the
``worker``/``claims`` lease columns of ``studies``, a version-0 or
version-1 file has every archive held inline in a result or a
checkpoint moved into ``archive_rows``, and every text snapshot of a
version-0, -1 or -2 file becomes a binary one, so every load reads one
format.  A file newer than this code is refused, not misread.

On resume, ``run_grid`` loads ``done`` tasks instead of re-running
them and restarts interrupted tasks from their last checkpoint;
because evaluation is pure, the replayed batches reproduce exactly
what the crashed process computed and the resumed grid is
bit-identical to an uninterrupted one (the killed cells of
``tests/integration/equivalence.py``).

Every write is its own committed sqlite transaction, so a ``kill -9``
can lose at most the work since the last checkpoint.  The journal
stays sqlite's default rollback journal: write-ahead logging saves
little per save and does not work on network file systems, which a
cluster of workers on machines sharing the file may use.  Connections are
guarded by process id: a ledger object captured into a forked worker
transparently opens its own connection instead of reusing the
parent's (sqlite connections are not fork-safe), which lets serial
and process backends share one code path.  Concurrent writers (many
workers, one parent) serialize on sqlite's file lock via
``busy_timeout``; tasks never contend on the same row.

Serialization is tagged JSON: the library's value objects (specs,
configs, metrics, archives, results) travel as their canonical dict
forms, and floats as their shortest round-trip repr.  A snapshot (a
checkpoint's state, a result without its archive's entries) is one
BLOB: the tagged JSON skeleton, in which each numpy array is a
reference (dtype, shape, byte offset), followed by the arrays' raw
bytes, so a save copies the policy weights and optimizer moments
instead of base64-encoding them into text.  An archive row holds one
entry's tagged JSON text, with its ``reward`` and ``feasible`` as
columns so progress reports read best rewards without decoding a
single entry; the text is assembled from its spec's and config's
tagged texts, which each object computes once and remembers.
"""

from __future__ import annotations

import base64
import functools
import json
import math
import os
import sqlite3
from contextlib import contextmanager
from dataclasses import dataclass, replace
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
    "check_lease_timing",
    "decode_state",
    "encode_state",
]

#: Matches the EvalCache: generous, because every write is one small
#: transaction and contention only comes from checkpoint bursts.
_BUSY_TIMEOUT_MS = 30_000

#: ``PRAGMA user_version`` of the schema below.  Version 1 gave
#: ``studies`` the lease columns of ``task_leases``: ``worker``, ``claims``.
#: Version 2 moved archive entries out of ``tasks`` results and
#: ``checkpoints`` snapshots into ``archive_rows``.  Version 3 stores
#: results and checkpoints as binary snapshots (:func:`_dumps`), not
#: text.
_SCHEMA_VERSION = 3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS tasks (
    label       TEXT NOT NULL,
    repeat      INTEGER NOT NULL,
    status      TEXT NOT NULL DEFAULT 'pending',
    result      BLOB,
    archive_len INTEGER,
    PRIMARY KEY (label, repeat)
);
CREATE TABLE IF NOT EXISTS checkpoints (
    label       TEXT NOT NULL,
    repeat      INTEGER NOT NULL,
    steps_done  INTEGER NOT NULL,
    state       BLOB NOT NULL,
    archive_len INTEGER,
    PRIMARY KEY (label, repeat)
);
CREATE TABLE IF NOT EXISTS archive_rows (
    label    TEXT NOT NULL,
    repeat   INTEGER NOT NULL,
    step     INTEGER NOT NULL,
    reward   REAL,
    feasible INTEGER NOT NULL,
    entry    TEXT NOT NULL,
    PRIMARY KEY (label, repeat, step)
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
    error        TEXT,
    worker       TEXT,
    claims       INTEGER NOT NULL DEFAULT 0
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

@functools.cache
def _value_types() -> tuple[type, ...]:
    """The value-object classes the codec handles, imported on first use
    and then kept: the evaluator layer imports ``repro.parallel`` (for
    EvalCache) while this module serializes the evaluator layer's
    types, so importing them at module scope would be circular; and
    the seven imports, run per call, cost more than encoding a config."""
    from repro.accelerator.config import AcceleratorConfig
    from repro.core.archive import ArchiveEntry, SearchArchive
    from repro.core.metrics import Metrics
    from repro.hw.charm import CharmConfig
    from repro.nasbench.model_spec import ModelSpec
    from repro.search.base import SearchResult
    from repro.workloads.transformer import TransformerSpec

    return (
        ModelSpec, AcceleratorConfig, TransformerSpec, CharmConfig, Metrics,
        ArchiveEntry, SearchArchive, SearchResult,
    )


def encode_state(obj: Any, arrays: bytearray | None = None) -> Any:
    """Turn a state value into a JSON-ready tagged structure.

    Bit-exact for floats (JSON's shortest-repr round-trips IEEE-754
    doubles) and numpy arrays (their raw bytes, base64).  With
    ``arrays`` (the raw section of a snapshot, see :func:`_dumps`), an
    array's bytes are appended there instead and its tagged form holds
    their offset.  Handles the search stack's value objects plus tuples
    and dicts with non-string keys; rejects anything else loudly rather
    than persisting a lossy approximation.
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
        if obj.dtype.hasobject:
            raise TypeError("cannot serialize an object array into a ledger")
        if arrays is not None:
            at = len(arrays)
            arrays += obj.tobytes()
            return {
                "__t__": "raw",
                "dtype": obj.dtype.str,
                "shape": list(obj.shape),
                "at": at,
            }
        return {
            "__t__": "ndarray",
            "dtype": obj.dtype.str,
            "shape": list(obj.shape),
            "data": base64.b64encode(np.ascontiguousarray(obj).tobytes()).decode(),
        }
    if isinstance(obj, tuple):
        return {"__t__": "tuple", "items": [encode_state(v, arrays) for v in obj]}
    if isinstance(obj, list):
        return [encode_state(v, arrays) for v in obj]
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj) and "__t__" not in obj:
            return {k: encode_state(v, arrays) for k, v in obj.items()}
        # Non-string keys (e.g. per-rung archives keyed by threshold)
        # or a literal "__t__" key: keep keys as tagged values.
        return {
            "__t__": "dict",
            "items": [
                [encode_state(k, arrays), encode_state(v, arrays)]
                for k, v in obj.items()
            ],
        }
    # Value objects last: the plain values above are the bulk of every
    # state.
    (ModelSpec, AcceleratorConfig, TransformerSpec, CharmConfig, Metrics,
     ArchiveEntry, SearchArchive, SearchResult) = _value_types()

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
            "extras": encode_state(obj.extras, arrays),
        }
    raise TypeError(f"cannot serialize {type(obj).__name__} into a ledger")


def decode_state(obj: Any, arrays: bytes | memoryview | None = None) -> Any:
    """Inverse of :func:`encode_state`; ``arrays`` is the raw section
    the ``"raw"`` array references point into.  Every array comes back
    as a writable copy that shares no memory with ``arrays``."""
    if isinstance(obj, list):
        return [decode_state(v, arrays) for v in obj]
    if not isinstance(obj, dict):
        return obj
    tag = obj.get("__t__")
    if tag is None:
        return {k: decode_state(v, arrays) for k, v in obj.items()}
    if tag == "raw":
        shape = obj["shape"]
        return np.frombuffer(
            arrays, np.dtype(obj["dtype"]), math.prod(shape), obj["at"]
        ).reshape(shape).copy()
    if tag == "ndarray":
        data = base64.b64decode(obj["data"])
        return np.frombuffer(data, dtype=np.dtype(obj["dtype"])).reshape(
            obj["shape"]
        ).copy()
    if tag == "tuple":
        return tuple(decode_state(v, arrays) for v in obj["items"])
    if tag == "dict":
        return {
            decode_state(k, arrays): decode_state(v, arrays) for k, v in obj["items"]
        }
    (ModelSpec, AcceleratorConfig, TransformerSpec, CharmConfig, Metrics,
     ArchiveEntry, SearchArchive, SearchResult) = _value_types()

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
            extras=decode_state(obj["extras"], arrays),
        )
    raise ValueError(f"unknown state tag {tag!r}")


#: ``json.dumps(value, separators=(",", ":"))``, without building an
#: encoder per call.
_json = json.JSONEncoder(separators=(",", ":")).encode
#: Byte length of a snapshot's skeleton-length prefix.
_HEAD = 8


def _text(obj: Any) -> str:
    """The tagged JSON text of ``obj``, as archive rows hold entries."""
    return _json(encode_state(obj))


def _dumps(obj: Any) -> bytes:
    """A snapshot of ``obj``: the tagged JSON skeleton's byte length
    (8 bytes, little-endian), the skeleton, then the raw bytes of its
    arrays, each at the offset its reference names."""
    arrays = bytearray()
    skeleton = _json(encode_state(obj, arrays)).encode()
    return b"".join((len(skeleton).to_bytes(_HEAD, "little"), skeleton, arrays))


def _loads(blob: bytes) -> Any:
    """Inverse of :func:`_dumps`."""
    end = _HEAD + int.from_bytes(blob[:_HEAD], "little")
    return decode_state(json.loads(blob[_HEAD:end]), memoryview(blob)[end:])


# ---------------------------------------------------------------------------
# Archive rows
# ---------------------------------------------------------------------------

_INSERT_ROWS = (
    "INSERT OR REPLACE INTO archive_rows"
    " (label, repeat, step, reward, feasible, entry) VALUES (?, ?, ?, ?, ?, ?)"
)

_ENTRY_TEXT = (
    '{"__t__":"entry","step":%s,"spec":%s,"config":%s,"metrics":%s,'
    '"reward":%s,"feasible":%s,"valid":%s,"phase":%s}'
)
_METRICS_TEXT = '{"__t__":"metrics","accuracy":%s,"latency_s":%s,"area_mm2":%s}'

#: The attribute under which a spec or config remembers its tagged text.
_TEXT_ATTR = "_ledger_text"


def _scalar_text(value: Any) -> str:
    """:func:`_text` of one scalar field, formatted directly for the
    plain types (json.dumps writes a finite float as its repr)."""
    kind = type(value)
    if kind is float and math.isfinite(value) or kind is int:
        return repr(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    return _text(value)  # numpy scalars, NaN and infinities


def _object_text(obj: Any) -> str:
    """:func:`_text` of a spec or config, computed once per object and
    remembered on it.  The memo is the object, not a table keyed by it:
    isomorphic specs compare equal but keep different original matrices,
    and a table would outlive the objects (charm-u50 has 393k configs).
    A ``__slots__`` object (``CharmConfig``) is encoded every time."""
    memo = getattr(obj, "__dict__", None)
    if memo is None:
        return _text(obj)
    text = memo.get(_TEXT_ATTR)
    if text is None:
        text = memo[_TEXT_ATTR] = _text(obj)
    return text


def _entry_row(key: tuple, step: int, entry: Any) -> tuple:
    """The ``archive_rows`` row of one archive entry.

    Its text is exactly :func:`_text` of the entry, assembled from the
    remembered texts of its spec and config plus its scalar fields
    formatted directly: the same bytes at a fraction of the cost.
    """
    metrics = entry.metrics
    metrics_text = "null" if metrics is None else _METRICS_TEXT % (
        _scalar_text(metrics.accuracy),
        _scalar_text(metrics.latency_s),
        _scalar_text(metrics.area_mm2),
    )
    reward, feasible = encode_state(entry.reward), encode_state(entry.feasible)
    text = _ENTRY_TEXT % (
        _scalar_text(entry.step),
        _object_text(entry.spec),
        _object_text(entry.config),
        metrics_text,
        _scalar_text(reward),
        _scalar_text(feasible),
        _scalar_text(entry.valid),
        _json(entry.phase),
    )
    return (*key, step, reward, feasible, text)


def _take_entries(holder: Any) -> list | None:
    """Empty the tagged archive at ``holder["archive"]`` in place and
    return its entries; ``None`` if ``holder`` holds no archive."""
    archive = holder.get("archive") if isinstance(holder, dict) else None
    if not isinstance(archive, dict) or archive.get("__t__") != "archive":
        return None
    entries, archive["entries"] = archive["entries"], []
    return entries


# ---------------------------------------------------------------------------
# Write transactions and leases
# ---------------------------------------------------------------------------

@contextmanager
def _immediate(db: sqlite3.Connection):
    """One write transaction holding sqlite's write lock from the start,
    so a read-then-write (a claim, an owner check) is atomic across
    every process sharing the file."""
    db.execute("BEGIN IMMEDIATE")
    try:
        yield db
        db.execute("COMMIT")
    except BaseException:
        if db.in_transaction:
            db.execute("ROLLBACK")
        raise


def _add_columns(db: sqlite3.Connection, table: str, columns: tuple[str, ...]) -> None:
    """Add the ``columns`` (SQL definitions) ``table`` lacks."""
    have = {row[1] for row in db.execute(f"PRAGMA table_info({table})")}
    for column in columns:
        if column.split()[0] not in have:
            db.execute(f"ALTER TABLE {table} ADD COLUMN {column}")


def _upgrade(db: sqlite3.Connection) -> None:
    """Bring an older file to :data:`_SCHEMA_VERSION`, inside the
    caller's :func:`_immediate` transaction.

    Each step skips what is already done, so a file whose version was
    never stamped after another process upgraded it is only stamped.
    Version 1 adds the lease columns of ``studies``.  Version 2 moves
    every archive held inline in a ``done`` result or a checkpoint
    into ``archive_rows``, leaving an empty archive in the snapshot
    and the entry count in ``archive_len``.  Version 3 turns every
    text snapshot (one without ``archive_len`` first goes through the
    version-2 step) into a binary one.  Together: the snapshots and
    rows a version-3 write of the same values would have stored.
    """
    _add_columns(db, "studies", ("worker TEXT", "claims INTEGER NOT NULL DEFAULT 0"))
    _add_columns(db, "tasks", ("archive_len INTEGER",))
    _add_columns(db, "checkpoints", ("archive_len INTEGER",))
    snapshots = (
        ("tasks", "result", "status='done'", lambda value: value),
        ("checkpoints", "state", "1", lambda value: value.get("strategy")),
    )
    for table, column, where, holder in snapshots:
        for label, repeat, text, length in db.execute(
            f"SELECT label, repeat, {column}, archive_len FROM {table}"
            f" WHERE typeof({column})='text' AND {where}"
        ).fetchall():
            value = json.loads(text)
            entries = _take_entries(holder(value)) if length is None else None
            if entries is not None:
                length = len(entries)
                db.executemany(_INSERT_ROWS, [
                    (label, repeat, step, e["reward"], e["feasible"], _json(e))
                    for step, e in enumerate(entries)
                ])
            db.execute(
                f"UPDATE {table} SET {column}=?, archive_len=?"
                " WHERE label=? AND repeat=?",
                (_dumps(decode_state(value)), length, label, repeat),
            )
    db.execute(f"PRAGMA user_version={_SCHEMA_VERSION}")


def check_lease_timing(
    stale_after: float, heartbeat_every: float, poll_every: float
) -> None:
    """Raise :class:`ValueError` on timings under which leases break: a
    holder that beats less often than ``stale_after`` loses live leases."""
    if stale_after <= 0:
        raise ValueError(f"stale_after must be > 0, got {stale_after}")
    if heartbeat_every <= 0:
        raise ValueError(f"heartbeat_every must be > 0, got {heartbeat_every}")
    if heartbeat_every >= stale_after:
        raise ValueError(
            f"heartbeat_every ({heartbeat_every}) must be smaller than "
            f"stale_after ({stale_after}) or live leases look stale"
        )
    if poll_every <= 0:
        raise ValueError(f"poll_every must be > 0, got {poll_every}")


@dataclass(frozen=True)
class _LeaseTable:
    """One lease table, as the shared claim/heartbeat/end statements see it.

    A row is claimable when it is ``waiting``, or ``held`` with a stale
    heartbeat.  Each statement runs inside the caller's
    :func:`_immediate` transaction, which may add its own writes.
    """

    table: str
    key: tuple[str, ...]
    waiting: str
    held: str
    #: Claim order (SQL ``ORDER BY`` terms).
    order: str
    #: Extra claim condition (SQL, ANDed), e.g. "not already done".
    runnable: str = ""

    def _where(self) -> str:
        return " AND ".join(f"{column}=?" for column in self.key)

    def claim(
        self, db, worker: str, pid: int, now: float, stale_after: float
    ) -> tuple | None:
        """Lease the next claimable row to ``worker``; its key, or ``None``."""
        key = db.execute(
            f"SELECT {', '.join(self.key)} FROM {self.table}"
            " WHERE (state=? OR (state=? AND (heartbeat IS NULL OR heartbeat < ?)))"
            f"{self.runnable} ORDER BY {self.order} LIMIT 1",
            (self.waiting, self.held, now - stale_after),
        ).fetchone()
        if key is not None:
            db.execute(
                f"UPDATE {self.table} SET state=?, worker=?, lease_pid=?,"
                f" heartbeat=?, claims=claims+1 WHERE {self._where()}",
                (self.held, worker, pid, now, *key),
            )
        return key

    def heartbeat(self, db, key: tuple, worker: str, now: float, pid=None) -> bool:
        """Stamp ``worker``'s lease (and ``lease_pid``, if given); ``False``
        once the lease is not ``worker``'s."""
        return db.execute(
            f"UPDATE {self.table} SET heartbeat=?, lease_pid=COALESCE(?, lease_pid)"
            f" WHERE {self._where()} AND worker=? AND state=?",
            (now, pid, *key, worker, self.held),
        ).rowcount > 0

    def end(self, db, key: tuple, worker: str, state: str, **columns) -> bool:
        """Move ``worker``'s lease to ``state``, setting ``columns``;
        ``False`` (nothing written) once the lease is not ``worker``'s."""
        sets = "".join(f", {column}=?" for column in columns)
        return db.execute(
            f"UPDATE {self.table} SET state=?{sets}"
            f" WHERE {self._where()} AND worker=? AND state=?",
            (state, *columns.values(), *key, worker, self.held),
        ).rowcount > 0


_STUDY_LEASES = _LeaseTable(
    "studies", ("study_id",), "queued", "running", "submitted_at, study_id"
)
_TASK_LEASES = _LeaseTable(
    "task_leases", ("label", "repeat"), "pending", "leased", "label, repeat",
    runnable=" AND NOT EXISTS (SELECT 1 FROM tasks t"
    " WHERE t.label=task_leases.label AND t.repeat=task_leases.repeat"
    " AND t.status='done')",
)

_STUDY_SELECT = (
    "SELECT study_id, spec, state, submitted_at, started_at, finished_at,"
    " lease_pid, heartbeat, result, error, worker, claims FROM studies"
)


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
        #: Per (label, repeat): how many archive rows, from step 0 on,
        #: this object knows are in the file because it wrote or read
        #: them.  A save encodes only the entries past that count.
        self._stored: dict[tuple[str, int], int] = {}

    # -- lifecycle ---------------------------------------------------------
    def _open(self) -> sqlite3.Connection:
        if self.path is None:
            conn = sqlite3.connect(":memory:")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.path)
            conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version > _SCHEMA_VERSION:
            conn.close()
            raise LedgerError(
                f"ledger {self.path} has schema version {version}, newer "
                f"than this code's version {_SCHEMA_VERSION}; open it with "
                "the code that wrote it"
            )
        conn.executescript(_SCHEMA)
        conn.commit()
        if conn.execute("PRAGMA user_version").fetchone()[0] < _SCHEMA_VERSION:
            with _immediate(conn):
                # Another process opening the file may have upgraded it
                # while this one waited for the lock.
                if conn.execute("PRAGMA user_version").fetchone()[0] < _SCHEMA_VERSION:
                    _upgrade(conn)
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

    # -- archive rows ------------------------------------------------------
    #
    # A task's archive only grows by appending (the run driver records
    # every result and nothing else writes to it), and a task computes
    # the same archive wherever and however often it runs.  So a row,
    # once stored, never changes: a save encodes only the entries past
    # what this object knows is stored, and a second writer of the same
    # task (a cluster straggler whose lease was re-issued) replaces rows
    # with identical ones.  A load takes the first ``archive_len`` rows.

    def _new_rows(self, key: tuple[str, int], archive) -> list[tuple]:
        start = self._stored.get(key, 0)
        return [
            _entry_row(key, step, entry)
            for step, entry in enumerate(archive.entries[start:], start)
        ]

    def _mark_stored(self, key: tuple[str, int], length: int) -> None:
        self._stored[key] = max(self._stored.get(key, 0), length)

    def _archive(self, db: sqlite3.Connection, key: tuple[str, int], length: int):
        from repro.core.archive import SearchArchive

        rows = db.execute(
            "SELECT entry FROM archive_rows WHERE label=? AND repeat=? AND step<?"
            " ORDER BY step",
            (*key, length),
        ).fetchall()
        if len(rows) != length:
            raise LedgerError(
                f"task {key} needs {length} archive rows but the ledger "
                f"holds {len(rows)}"
            )
        self._mark_stored(key, length)
        return SearchArchive(entries=[decode_state(json.loads(row[0])) for row in rows])

    # -- task results ------------------------------------------------------
    def load_result(self, label: str, repeat: int) -> SearchResult | None:
        """The completed result of one task, or ``None`` if not done."""
        key = (label, int(repeat))
        db = self._db()
        row = db.execute(
            "SELECT result, archive_len FROM tasks"
            " WHERE label=? AND repeat=? AND status='done'",
            key,
        ).fetchone()
        if row is None:
            return None
        result = _loads(row[0])
        result.archive = self._archive(db, key, row[1])
        return result

    def _done_parts(self, key: tuple[str, int], result: "SearchResult") -> tuple:
        """What :meth:`_write_done` stores: the result without its
        archive's entries, the rows not stored yet, the entry count."""
        from repro.core.archive import SearchArchive

        blob = _dumps(replace(result, archive=SearchArchive()))
        return blob, self._new_rows(key, result.archive), len(result.archive)

    @staticmethod
    def _write_done(
        db: sqlite3.Connection, key: tuple[str, int], blob: bytes, rows: list, length: int
    ) -> None:
        db.executemany(_INSERT_ROWS, rows)
        db.execute(
            "INSERT OR REPLACE INTO tasks (label, repeat, status, result, archive_len)"
            " VALUES (?, ?, 'done', ?, ?)",
            (*key, blob, length),
        )
        db.execute("DELETE FROM checkpoints WHERE label=? AND repeat=?", key)

    def record_done(self, label: str, repeat: int, result: SearchResult) -> None:
        """Persist a finished task and drop its checkpoint atomically."""
        key = (label, int(repeat))
        parts = self._done_parts(key, result)
        with _immediate(self._db()) as db:
            self._write_done(db, key, *parts)
        self._mark_stored(key, parts[2])

    # -- checkpoints -------------------------------------------------------
    def save_checkpoint(self, label: str, repeat: int, state: dict) -> None:
        """Store ``state`` as the task's latest snapshot, in one transaction.

        The entries of a :class:`~repro.core.archive.SearchArchive` at
        ``state["strategy"]["archive"]`` go to ``archive_rows``, only
        those not stored yet; the rest of the state goes to
        ``checkpoints``.  A task already ``done`` keeps no snapshot, so
        a straggler's late save writes nothing.
        """
        from repro.core.archive import SearchArchive

        key = (label, int(repeat))
        strategy = state.get("strategy")
        archive = strategy.get("archive") if isinstance(strategy, dict) else None
        rows, length = [], None
        if isinstance(archive, SearchArchive):
            state = {**state, "strategy": {**strategy, "archive": SearchArchive()}}
            rows, length = self._new_rows(key, archive), len(archive)
        blob = _dumps(state)
        with _immediate(self._db()) as db:
            if db.execute(
                "SELECT 1 FROM tasks WHERE label=? AND repeat=? AND status='done'",
                key,
            ).fetchone() is not None:
                return
            db.executemany(_INSERT_ROWS, rows)
            db.execute(
                "INSERT OR REPLACE INTO checkpoints"
                " (label, repeat, steps_done, state, archive_len)"
                " VALUES (?, ?, ?, ?, ?)",
                (*key, int(state.get("steps_done", 0)), blob, length),
            )
        if length is not None:
            self._mark_stored(key, length)

    def load_checkpoint(self, label: str, repeat: int) -> dict | None:
        key = (label, int(repeat))
        db = self._db()
        row = db.execute(
            "SELECT state, archive_len FROM checkpoints WHERE label=? AND repeat=?",
            key,
        ).fetchone()
        if row is None:
            return None
        state = _loads(row[0])
        if row[1] is not None:
            state["strategy"]["archive"] = self._archive(db, key, row[1])
        return state

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
            _STUDY_SELECT + " WHERE study_id=?", (study_id,)
        ).fetchone()
        return self._study_row(row) if row is not None else None

    def studies(self) -> list[dict]:
        """Every queue row, oldest submission first."""
        rows = self._db().execute(
            _STUDY_SELECT + " ORDER BY submitted_at, study_id"
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
            "worker": row[10],
            "claims": int(row[11]),
        }

    def claim_study(
        self, worker: str, pid: int, now: float, stale_after: float
    ) -> str | None:
        """Lease the oldest ``queued`` (or stale ``running``) study to
        ``worker``; ``None`` if idle.  The first claim stamps ``started_at``."""
        with _immediate(self._db()) as db:
            key = _STUDY_LEASES.claim(db, worker, pid, now, stale_after)
            if key is None:
                return None
            db.execute(
                "UPDATE studies SET started_at=COALESCE(started_at, ?)"
                " WHERE study_id=?",
                (now, *key),
            )
        return key[0]

    def heartbeat_study(
        self, study_id: str, worker: str, now: float, pid: int | None = None
    ) -> bool:
        """Refresh ``worker``'s lease; ``False`` once it is cancelled or
        re-leased, and the caller must stop its runner.  ``pid`` re-points
        ``lease_pid`` at that runner, whose process group a cancel kills."""
        with _immediate(self._db()) as db:
            return _STUDY_LEASES.heartbeat(db, (study_id,), worker, now, pid)

    def finish_study(
        self, study_id: str, worker: str, result: dict, now: float
    ) -> None:
        """Mark ``worker``'s running study ``done`` with its result summary."""
        result = json.dumps(result, separators=(",", ":"))
        self._end_study(study_id, worker, "done", finished_at=now, result=result)

    def fail_study(self, study_id: str, worker: str, error: str, now: float) -> None:
        """Mark ``worker``'s running study ``failed`` with a diagnostic."""
        self._end_study(study_id, worker, "failed", finished_at=now, error=error)

    def _end_study(self, study_id: str, worker: str, state: str, **columns) -> None:
        """End ``worker``'s lease, or raise :class:`LedgerError` naming why not."""
        with _immediate(self._db()) as db:
            if _STUDY_LEASES.end(db, (study_id,), worker, state, **columns):
                return
            row = db.execute(
                "SELECT state, worker FROM studies WHERE study_id=?", (study_id,)
            ).fetchone()
        why = (
            "unknown study" if row is None
            else f"state is {row[0]!r}, held by {row[1]!r}"
        )
        raise LedgerError(f"cannot mark study {study_id!r} {state}: {why}")

    def cancel_study(self, study_id: str, now: float) -> str | None:
        """Cancel a ``queued``/``running`` study; returns its prior state.

        Anyone may cancel; the holder's next heartbeat is then refused.
        Terminal studies are left untouched (``None`` is returned) —
        cancellation must never overwrite a concurrently recorded
        ``done``/``failed`` outcome.
        """
        with _immediate(self._db()) as db:
            row = db.execute(
                "SELECT state FROM studies WHERE study_id=?"
                " AND state IN ('queued', 'running')",
                (study_id,),
            ).fetchone()
            if row is not None:
                db.execute(
                    "UPDATE studies SET state='cancelled', finished_at=?"
                    " WHERE study_id=?",
                    (now, study_id),
                )
        return None if row is None else row[0]

    # -- cluster task leases -----------------------------------------------

    def seed_task_leases(self, tasks: list[tuple[str, int]]) -> None:
        """Ensure a lease row exists for every (label, repeat) task.

        Idempotent: existing rows (live leases of an in-flight run, or
        ``done`` markers of a finished one) are left untouched, and
        rows whose task already completed — e.g. under a *different*
        backend before a resume — are marked ``done`` so the cluster's
        progress accounting converges.
        """
        with _immediate(self._db()) as db:
            db.executemany(
                "INSERT OR IGNORE INTO task_leases (label, repeat) VALUES (?, ?)",
                [(label, int(repeat)) for label, repeat in tasks],
            )
            db.execute(
                "UPDATE task_leases SET state='done' WHERE state!='done'"
                " AND EXISTS (SELECT 1 FROM tasks t WHERE t.label=task_leases.label"
                " AND t.repeat=task_leases.repeat AND t.status='done')"
            )

    def claim_task(
        self, worker: str, pid: int, now: float, stale_after: float
    ) -> tuple[str, int] | None:
        """Lease the first ``pending`` (or stale ``leased``) task not yet
        ``done`` in ``tasks`` to ``worker``, in (label, repeat) order;
        ``None`` if none."""
        with _immediate(self._db()) as db:
            key = _TASK_LEASES.claim(db, worker, pid, now, stale_after)
        return None if key is None else (key[0], int(key[1]))

    def heartbeat_task(self, label: str, repeat: int, worker: str, now: float) -> bool:
        """Refresh ``worker``'s lease; ``False`` once it was re-issued, and
        :meth:`record_done_leased` would refuse the worker's result."""
        with _immediate(self._db()) as db:
            return _TASK_LEASES.heartbeat(db, (label, int(repeat)), worker, now)

    def record_done_leased(
        self, label: str, repeat: int, worker: str, result: "SearchResult"
    ) -> bool:
        """Persist a leased task's result iff the lease is still ``worker``'s.

        One transaction ends the lease, writes the ``tasks`` row and
        drops the checkpoint.  A straggler whose lease was re-issued
        gets ``False``: the current holder records the bit-identical
        result, so no (label, repeat) is recorded by two workers.
        """
        key = (label, int(repeat))
        parts = self._done_parts(key, result)
        with _immediate(self._db()) as db:
            if not _TASK_LEASES.end(db, key, worker, "done"):
                return False
            self._write_done(db, key, *parts)
        self._mark_stored(key, parts[2])
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
        with _immediate(self._db()) as db:
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

    def best_rewards(self, label: str) -> list[float | None]:
        """The best feasible reward of each finished repeat under one job
        label, repeat order (``None`` where a repeat found no feasible
        point): one aggregate over the rows' reward and feasible
        columns, which decodes no entry."""
        return [
            best
            for _repeat, best in self._db().execute(
                "SELECT t.repeat, MAX(CASE WHEN a.feasible THEN a.reward END)"
                " FROM tasks t LEFT JOIN archive_rows a ON a.label=t.label"
                " AND a.repeat=t.repeat AND a.step<t.archive_len"
                " WHERE t.label=? AND t.status='done'"
                " GROUP BY t.repeat ORDER BY t.repeat",
                (label,),
            )
        ]

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
        self._blob: bytes | None = None
        self.saves = 0

    def load(self) -> dict | None:
        return _loads(self._blob) if self._blob is not None else None

    def save(self, state: dict) -> None:
        self._blob = _dumps(state)
        self.saves += 1
