"""Shared, persistent evaluation cache (the warm-start store).

Searches revisit (cell, accelerator) pairs constantly — within a run,
across the 10 paper repeats, and across re-runs of the same experiment.
The in-memory dicts inside :class:`repro.core.CodesignEvaluator` only
help within one process lifetime; :class:`EvalCache` extends that
memoization to disk so repeats, worker processes, and whole re-runs
share one pool of already-evaluated points.

The store is a single sqlite file keyed by
``(scenario, spec_hash, config_key)`` holding the deterministic metric
triple ``(accuracy, latency_s, area_mm2)`` plus an optional JSON
``extra`` payload (:class:`repro.training.CachedTrainer` keeps one
cell's training GPU-hours there).  Because every metric in the library
is a pure function of the key, caching can never change results — only
how fast they are produced.

Concurrency model: writers buffer rows in memory and persist them in
one transaction on :meth:`flush`.  Connections are guarded by process
id, like :class:`~repro.parallel.ledger.RunLedger`'s: a cache object
inherited through fork opens its own connection to the same file on
its first sqlite access (a path-less cache opens empty instead), and
never runs a statement on the parent's.  So every process that holds
the object — serial runs, pool workers, cluster workers — is a writer
of its own and persists its rows at its own :meth:`flush`.  Every row
is an ``INSERT OR REPLACE`` of a pure function of its key, and flush
transactions serialize on sqlite's file lock (``busy_timeout``), so
concurrent writers can interleave but never lose or corrupt each
other's rows (see ``tests/parallel/test_cache_concurrency.py``).
Misses are memoized only until the next :meth:`flush` — positive rows
are immutable facts, but "absent" is a statement about a moment in
time, and a long-lived run must eventually observe rows its
neighbours write.

A corrupted or unreadable store is never fatal: it is moved aside and
the cache restarts cold (see ``recovered``).
"""

from __future__ import annotations

import json
import os
import sqlite3
from dataclasses import dataclass
from pathlib import Path

__all__ = ["CacheEntry", "EvalCache"]

#: How long a blocked connection waits on sqlite's file lock before
#: raising — generous, because flushes are rare and transactional.
_BUSY_TIMEOUT_MS = 30_000

_SCHEMA = """
CREATE TABLE IF NOT EXISTS evals (
    scenario   TEXT NOT NULL,
    spec_hash  TEXT NOT NULL,
    config_key TEXT NOT NULL,
    accuracy   REAL,
    latency_s  REAL,
    area_mm2   REAL,
    extra      TEXT,
    PRIMARY KEY (scenario, spec_hash, config_key)
)
"""


@dataclass(frozen=True)
class CacheEntry:
    """One cached evaluation: key triple + metric triple (+ extras).

    ``accuracy is None`` records "this pair is not evaluable" (e.g. a
    cell outside the NASBench database) — a negative result worth
    caching, since searches repropose such cells too.
    """

    scenario: str
    spec_hash: str
    config_key: str
    accuracy: float | None
    latency_s: float | None
    area_mm2: float | None
    extra: dict | None = None

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.scenario, self.spec_hash, self.config_key)


class EvalCache:
    """Sqlite-backed evaluation store with buffered writes.

    ``path=None`` keeps the store purely in memory (useful in tests and
    as a serial-mode default); otherwise the parent directory is
    created on demand.  One object serves every process that inherits
    it through fork, each over a connection of its own (see
    :meth:`_db`).
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self.hits = 0
        self.misses = 0
        self.recovered = False
        self._pending: dict[tuple[str, str, str], CacheEntry] = {}
        self._loaded: dict[tuple[str, str, str], CacheEntry | None] = {}
        self._pid = os.getpid()
        self._conn = self._open()

    # -- lifecycle ---------------------------------------------------------
    def _open(self) -> sqlite3.Connection:
        if self.path is None:
            conn = sqlite3.connect(":memory:")
            conn.execute(_SCHEMA)
            return conn
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = None
        try:
            conn = sqlite3.connect(self.path)
            # Concurrent writers (worker processes, independent runs
            # sharing one store) serialize on sqlite's file lock
            # instead of failing with "database is locked".
            conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
            conn.execute(_SCHEMA)
            conn.execute("SELECT COUNT(*) FROM evals").fetchone()
            return conn
        except sqlite3.OperationalError:
            # Locked / unopenable is an environment problem, not
            # corruption — never quarantine a healthy concurrent store.
            raise
        except sqlite3.DatabaseError:
            # Corrupted (or not actually sqlite): fall back to cold.
            if conn is not None:
                conn.close()
            self.recovered = True
            quarantine = self.path.with_suffix(self.path.suffix + ".corrupt")
            quarantine.unlink(missing_ok=True)
            self.path.rename(quarantine)
            conn = sqlite3.connect(self.path)
            conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
            conn.execute(_SCHEMA)
            return conn

    def _db(self) -> sqlite3.Connection:
        """This process's connection, opened on first use after a fork.

        Sqlite connections are not fork-safe: a forked worker that
        inherits the parent's shares its file descriptor and
        transaction state.  Guarding every access on the opening pid
        lets one cache object be captured into worker closures (an
        evaluator, a training store) and still give every process a
        private connection — to the same file, or a fresh empty store
        for a path-less cache.  The inherited connection object is
        dropped unused.
        """
        if os.getpid() != self._pid:
            self._conn = self._open()
            self._pid = os.getpid()
        return self._conn

    def close(self) -> None:
        """Flush buffered rows, then release this process's connection.

        Without the flush, ``with EvalCache(path) as c: c.put(...)``
        silently dropped every row still buffered in ``_pending``.  A
        fork-inherited cache that never opened a connection of its own
        leaves the parent's untouched: closing it could roll back the
        parent's in-flight transaction on the shared file.
        """
        try:
            self.flush()
        finally:
            if os.getpid() == self._pid:
                self._conn.close()

    def __del__(self) -> None:
        # Release the file descriptor as soon as the cache itself is
        # unreachable (i.e. promptly, via refcounting).  Without this,
        # sqlite connections linger in reference cycles until the
        # cycle collector runs, and a long-lived worker churning
        # through task-local caches accumulates open fds.
        try:
            if os.getpid() == self._pid:
                self._conn.close()
        except Exception:
            pass  # never raise from a finalizer (shutdown, half-init)

    def __enter__(self) -> "EvalCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reads -------------------------------------------------------------
    def get(self, scenario: str, spec_hash: str, config_key: str) -> CacheEntry | None:
        """Look up one key; ``None`` on miss.  Hot keys are memoized."""
        key = (scenario, spec_hash, config_key)
        if key in self._pending:
            self.hits += 1
            return self._pending[key]
        if key in self._loaded:
            entry = self._loaded[key]
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            return entry
        row = self._db().execute(
            "SELECT accuracy, latency_s, area_mm2, extra FROM evals"
            " WHERE scenario=? AND spec_hash=? AND config_key=?",
            key,
        ).fetchone()
        if row is None:
            self._loaded[key] = None
            self.misses += 1
            return None
        entry = CacheEntry(
            scenario,
            spec_hash,
            config_key,
            accuracy=row[0],
            latency_s=row[1],
            area_mm2=row[2],
            extra=json.loads(row[3]) if row[3] else None,
        )
        self._loaded[key] = entry
        self.hits += 1
        return entry

    def __len__(self) -> int:
        """Rows persisted on disk (pending buffered rows not counted)."""
        return int(self._db().execute("SELECT COUNT(*) FROM evals").fetchone()[0])

    @property
    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "pending": len(self._pending),
            "persisted": len(self),
        }

    # -- writes ------------------------------------------------------------
    def put(self, entry: CacheEntry) -> None:
        """Buffer one row (persisted on the next :meth:`flush`)."""
        self._pending[entry.key] = entry

    def _forget_misses(self) -> None:
        """Drop memoized misses so later ``get``\\ s re-query the store.

        Positive memos are pure functions of their key and can never go
        stale; a miss, however, only says the row was absent *at lookup
        time* — an independent run sharing the store may well have
        written it since.  Without this, a long-lived parent memoizes
        its first miss forever and never observes concurrent writers.
        """
        self._loaded = {k: v for k, v in self._loaded.items() if v is not None}

    def flush(self) -> int:
        """Persist buffered rows in one transaction; returns row count.

        Also invalidates memoized misses — flush boundaries are where a
        run synchronizes with the store, so they are the natural point
        to start observing rows concurrent runs have written since.
        """
        self._forget_misses()
        if not self._pending:
            return 0
        entries = list(self._pending.values())
        conn = self._db()
        conn.executemany(
            "INSERT OR REPLACE INTO evals"
            " (scenario, spec_hash, config_key, accuracy, latency_s, area_mm2, extra)"
            " VALUES (?, ?, ?, ?, ?, ?, ?)",
            [
                (
                    e.scenario,
                    e.spec_hash,
                    e.config_key,
                    e.accuracy,
                    e.latency_s,
                    e.area_mm2,
                    json.dumps(e.extra) if e.extra is not None else None,
                )
                for e in entries
            ],
        )
        conn.commit()
        self._pending.clear()
        self._loaded.update({e.key: e for e in entries})
        return len(entries)
