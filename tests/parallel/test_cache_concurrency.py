"""Concurrency + corruption-recovery stress tests for the EvalCache store.

The store's contract under concurrency: any number of processes may
open one sqlite file and interleave buffered writes — flush
transactions serialize on sqlite's file lock (``busy_timeout``), every
row is an ``INSERT OR REPLACE`` of a pure function of its key, and so
no row is ever lost and the file never corrupts.
"""

from __future__ import annotations

import multiprocessing
import sqlite3

import pytest

from repro.parallel import CacheEntry, EvalCache

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required",
)


def _hammer_disjoint(args) -> int:
    """Write ``rows`` rows under a per-writer namespace, many flushes."""
    path, writer, rows, flush_every = args
    cache = EvalCache(path)
    for i in range(rows):
        cache.put(
            CacheEntry(f"w{writer}", f"spec{i}", "(cfg)", 90.0 + writer, 0.01 * i, 100.0)
        )
        if (i + 1) % flush_every == 0:
            cache.flush()
    cache.flush()
    cache.close()
    return rows


def _hammer_shared(args) -> int:
    """Write the SAME key set from every process (INSERT OR REPLACE races)."""
    path, writer, rows = args
    cache = EvalCache(path)
    for i in range(rows):
        cache.put(CacheEntry("shared", f"spec{i}", "(cfg)", float(writer), None, None))
        cache.flush()
    cache.close()
    return rows


def _integrity_ok(path) -> bool:
    conn = sqlite3.connect(path)
    try:
        return conn.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
    finally:
        conn.close()


@pytest.mark.slow
class TestConcurrentWriters:
    def test_disjoint_writers_lose_no_rows(self, tmp_path):
        """N processes, disjoint keys, interleaved flushes: all rows land."""
        path = tmp_path / "store.sqlite"
        n_procs, rows = 6, 120
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(n_procs) as pool:
            done = pool.map(
                _hammer_disjoint, [(path, w, rows, 7) for w in range(n_procs)]
            )
        assert done == [rows] * n_procs
        assert _integrity_ok(path)
        with EvalCache(path) as cache:
            assert len(cache) == n_procs * rows
            for w in range(n_procs):
                for i in range(0, rows, 17):
                    hit = cache.get(f"w{w}", f"spec{i}", "(cfg)")
                    assert hit is not None
                    assert hit.accuracy == 90.0 + w

    def test_colliding_writers_never_corrupt(self, tmp_path):
        """Same keys from every process: last-writer-wins, file stays sane."""
        path = tmp_path / "store.sqlite"
        n_procs, rows = 5, 40
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(n_procs) as pool:
            pool.map(_hammer_shared, [(path, w, rows) for w in range(n_procs)])
        assert _integrity_ok(path)
        with EvalCache(path) as cache:
            assert len(cache) == rows  # one row per key, none duplicated
            for i in range(rows):
                hit = cache.get("shared", f"spec{i}", "(cfg)")
                assert hit is not None
                assert hit.accuracy in {float(w) for w in range(n_procs)}

    def test_readers_during_writes_see_consistent_rows(self, tmp_path):
        """A second connection opened mid-run serves committed rows only."""
        path = tmp_path / "store.sqlite"
        writer = EvalCache(path)
        writer.put(CacheEntry("s", "a", "(c)", 1.0, None, None))
        writer.flush()
        writer.put(CacheEntry("s", "b", "(c)", 2.0, None, None))  # uncommitted
        reader = EvalCache(path)
        assert reader.get("s", "a", "(c)") is not None
        assert reader.get("s", "b", "(c)") is None
        writer.flush()
        reader2 = EvalCache(path)
        assert reader2.get("s", "b", "(c)") is not None


class TestCorruptStoreQuarantine:
    """Direct regression tests for the quarantine path."""

    def test_corrupt_store_is_quarantined_with_bytes_preserved(self, tmp_path):
        path = tmp_path / "store.sqlite"
        garbage = b"not a sqlite file at all" * 10
        path.write_bytes(garbage)
        cache = EvalCache(path)
        assert cache.recovered
        quarantine = path.with_suffix(".sqlite.corrupt")
        assert quarantine.exists()
        assert quarantine.read_bytes() == garbage  # evidence preserved
        # The replacement store is a healthy, writable sqlite file.
        cache.put(CacheEntry("s", "a", "(c)", 1.0, None, None))
        assert cache.flush() == 1
        cache.close()
        assert _integrity_ok(path)
        warm = EvalCache(path)
        assert not warm.recovered
        assert warm.get("s", "a", "(c)") is not None

    def test_requarantine_replaces_stale_quarantine(self, tmp_path):
        path = tmp_path / "store.sqlite"
        quarantine = path.with_suffix(".sqlite.corrupt")
        quarantine.write_bytes(b"old quarantine")
        path.write_bytes(b"fresh corruption")
        cache = EvalCache(path)
        assert cache.recovered
        assert quarantine.read_bytes() == b"fresh corruption"
        cache.close()
