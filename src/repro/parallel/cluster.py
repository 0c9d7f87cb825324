"""Ledger-leased elastic cluster backend.

The ``cluster`` :class:`~repro.parallel.pool.ExecutionBackend` scales
a grid beyond one process pool: any number of worker processes —
forked locally by the backend, or started on other machines with
``python -m repro.parallel.worker`` (``repro worker``) against a
shared state directory — cooperate through the run ledger's
``task_leases`` table:

* every pending (label, repeat) task gets a lease row;
* workers claim, heartbeat and end leases through the ledger's one
  lease lifecycle, the same one ``repro serve`` leases studies with:
  a claim is atomic (never two claimants), and the result is recorded
  through :meth:`~repro.parallel.ledger.RunLedger.record_done_leased`;
* a crashed or stalled worker's lease heartbeat goes stale and the
  task is re-issued — resuming from its last checkpoint, so the work
  already persisted is replayed, not recomputed;
* a straggler that finishes after losing its lease is refused at
  record time, so no task is ever recorded twice; its checkpoints
  write archive rows identical to the new holder's, and nothing at
  all once the task is done;
* workers may join and leave at any point (elasticity): joining means
  opening the ledger and claiming; leaving means simply exiting, with
  any held lease re-issued after ``stale_after`` seconds.

Bit-identity: per-repeat seeds depend only on the master seed and the
repeat index, evaluation is pure, and checkpoints resume exactly, so
*which* worker runs a task — or how many times a task is re-issued —
never changes its result.  ``backend="cluster"`` reproduces the
serial loop bit for bit, with or without a killed worker (the cluster
cells of ``tests/integration/equivalence.py``).

Eval cache: a worker runs each claimed task through the same
:meth:`~repro.search.runner.RepeatJob.run` as the serial and process
backends, over its own connection to the shared
:class:`~repro.parallel.cache.EvalCache` store (concurrent writers are
supported — rows are pure, writes serialize on sqlite's file lock),
and flushes its rows when the task completes, so a joining worker
warm-starts from everything the cluster has already evaluated.  Each
locally forked worker hands its hit/miss counts back as it exits, so
the coordinator's hit rate covers the whole run, as the process
backend's does.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import sqlite3
import threading
import time
from pathlib import Path

from repro.parallel.cache import EvalCache
from repro.parallel.ledger import LedgerError, RunLedger, check_lease_timing
from repro.parallel.pool import (
    ExecutionBackend,
    _mark_worker,
    fork_available,
    register_backend,
    resolve_workers,
)

__all__ = ["ClusterBackend", "run_worker"]


def _heartbeat_loop(
    path, label: str, repeat: int, worker_id: str, every: float, stop: threading.Event
) -> None:
    # Own ledger (and sqlite connection) per heartbeat thread:
    # connections are neither thread- nor fork-safe, and the worker's
    # main thread is busy inside strategy.run.
    ledger = RunLedger(path)
    try:
        while not stop.wait(every):
            try:
                held = ledger.heartbeat_task(label, repeat, worker_id, time.time())
            except sqlite3.OperationalError:
                # The file stayed locked past the busy timeout: a missed
                # tick.  Beat again on the next one, so the lease is
                # lost only by going stale.
                continue
            if not held:
                # Lease re-issued (we stalled past stale_after): the
                # new holder owns the task now and record_done_leased
                # will refuse our result.  Nothing left to keep alive.
                return
    finally:
        ledger.close()


def run_worker(
    jobs,
    ledger: RunLedger | str | Path,
    *,
    num_steps: int,
    num_repeats: int,
    master_seed: int = 0,
    batch_size: int = 1,
    checkpoint_every: int = 10,
    cache: EvalCache | None = None,
    worker_id: str | None = None,
    stale_after: float = 10.0,
    heartbeat_every: float = 1.0,
    poll_every: float = 0.2,
    max_tasks: int | None = None,
) -> int:
    """Claim-and-run loop of one cluster worker; returns tasks recorded.

    ``jobs`` is the grid's :class:`~repro.search.runner.RepeatJob`
    list (an external worker rebuilds it from the ledger-pinned
    StudySpec — see :mod:`repro.parallel.worker`); ``ledger`` must be
    file-backed, since the lease table *is* the cluster.  The loop
    exits once every lease is ``done`` (or after ``max_tasks``
    recorded tasks, for tests and bounded-contribution workers).

    The run parameters must match the coordinating run's — they are
    what :meth:`RunLedger.begin_run` pins, and the caller is expected
    to have validated against ``ledger.run_config()``.
    """
    check_lease_timing(stale_after, heartbeat_every, poll_every)
    if not isinstance(ledger, RunLedger):
        ledger = RunLedger(ledger)
    if ledger.path is None:
        raise LedgerError(
            "a cluster worker requires a file-backed ledger — the "
            "task_leases table is the coordination substrate"
        )
    if worker_id is None:
        worker_id = f"{socket.gethostname()}-{os.getpid()}"
    by_label = {job.label: job for job in jobs}
    # Idempotent: makes join order irrelevant (a worker may beat the
    # coordinator to the ledger) and marks already-done tasks.
    ledger.seed_task_leases(
        [(job.label, repeat) for job in jobs for repeat in range(num_repeats)]
    )

    recorded = 0
    while True:
        claim = ledger.claim_task(
            worker_id, os.getpid(), time.time(), stale_after
        )
        if claim is None:
            # Re-sync lease states first: a task recorded outside
            # the lease protocol (a serial resume of the same
            # ledger) leaves its lease un-done, which would stall
            # the progress check below forever.
            ledger.seed_task_leases([])
            progress = ledger.cluster_progress()
            if progress["total"] == 0 or progress["done"] >= progress["total"]:
                break
            time.sleep(poll_every)
            continue
        label, repeat = claim
        job = by_label.get(label)
        if job is None:
            raise LedgerError(
                f"claimed a lease for unknown job label {label!r}; this "
                "worker's jobs do not match the run that seeded the "
                f"ledger (known: {sorted(by_label)})"
            )
        stop = threading.Event()
        beat = threading.Thread(
            target=_heartbeat_loop,
            args=(ledger.path, label, repeat, worker_id, heartbeat_every, stop),
            daemon=True,
        )
        beat.start()
        try:
            result = job.run(
                repeat,
                num_steps=num_steps,
                master_seed=master_seed,
                batch_size=batch_size,
                checkpoint_every=checkpoint_every,
                cache=cache,
                ledger=ledger,
            )
        finally:
            stop.set()
            beat.join()
        if ledger.record_done_leased(label, repeat, worker_id, result):
            recorded += 1
        # A refused record means we were a straggler: the lease was
        # re-issued and the current holder records the bit-identical
        # result.  Either way, move on to the next claim.
        if max_tasks is not None and recorded >= max_tasks:
            break
    return recorded


class ClusterBackend(ExecutionBackend):
    """Grid execution over ledger-leased cooperating worker processes.

    ``run_tasks`` seeds lease rows for the pending tasks, forks
    ``workers`` local claim loops (where ``fork`` exists), then mops
    up any remainder in-process — so the run completes even if every
    local worker dies, and external ``repro worker`` processes that
    share the ledger file join the same lease pool.  Declarative
    params (``execution.backend_params`` in a study spec):

    ``stale_after``
        Seconds without a heartbeat before a lease is re-issued.
    ``heartbeat_every``
        Seconds between a worker's liveness stamps on its held lease.
    ``poll_every``
        Idle sleep between claim attempts when nothing is runnable.
    """

    name = "cluster"

    def __init__(
        self,
        stale_after: float = 10.0,
        heartbeat_every: float = 1.0,
        poll_every: float = 0.2,
    ) -> None:
        check_lease_timing(stale_after, heartbeat_every, poll_every)
        self.stale_after = float(stale_after)
        self.heartbeat_every = float(heartbeat_every)
        self.poll_every = float(poll_every)

    def _local_workers(self, grid) -> int:
        if not fork_available() or len(grid.pending) <= 1:
            return 0
        return min(resolve_workers(grid.workers), len(grid.pending))

    def describe_execution(self, grid) -> dict:
        description = super().describe_execution(grid)
        description["workers"] = min(
            resolve_workers(grid.workers), max(len(grid.pending), 1)
        )
        description["local_workers"] = self._local_workers(grid)
        return description

    def _worker_kwargs(self, grid) -> dict:
        return {
            "num_steps": grid.num_steps,
            "num_repeats": grid.num_repeats,
            "master_seed": grid.master_seed,
            "batch_size": grid.batch_size,
            "checkpoint_every": grid.checkpoint_every,
            "cache": grid.cache,
            "stale_after": self.stale_after,
            "heartbeat_every": self.heartbeat_every,
            "poll_every": self.poll_every,
        }

    def _child_main(self, grid, worker_id: str, lookups) -> None:
        # Forked child: closures (jobs, the latency matrix behind their
        # factories) arrived copy-on-write.  A nested process-backend
        # grid must run in-process instead of forking a pool of its own.
        _mark_worker()
        cache = grid.cache
        hits, misses = (cache.hits, cache.misses) if cache is not None else (0, 0)
        run_worker(grid.jobs, grid.ledger, worker_id=worker_id, **self._worker_kwargs(grid))
        if cache is not None:
            lookups[:] = [cache.hits - hits, cache.misses - misses]

    def run_tasks(self, grid) -> dict:
        ledger = grid.ledger
        if ledger is None or ledger.path is None:
            raise ValueError(
                "the cluster backend requires a file-backed ledger — "
                "workers coordinate through its task_leases table; pass "
                "ledger=<path> (execution.ledger in a study spec)"
            )
        grid.prepare_for_workers(self.name)
        ledger.seed_task_leases([(grid.labels[j], r) for j, r in grid.pending])

        children = []
        for index in range(self._local_workers(grid)):
            ctx = multiprocessing.get_context("fork")
            # (hits, misses) the worker writes as it exits; a killed
            # worker leaves zeros and contributes no lookups.
            lookups = ctx.Array("q", 2, lock=False)
            child = ctx.Process(
                target=self._child_main,
                args=(grid, f"local-{index}-{os.getpid()}", lookups),
            )
            child.start()
            children.append((child, lookups))
        for child, lookups in children:
            child.join()
            if grid.cache is not None:
                grid.cache.hits += lookups[0]
                grid.cache.misses += lookups[1]
        # Mop-up claim loop in-process: finishes anything the local
        # workers left behind (all killed, fork unavailable, or a
        # straggling external worker's stale lease) and is a no-op on
        # a fully recorded run.
        run_worker(
            grid.jobs,
            ledger,
            worker_id=f"coordinator-{os.getpid()}",
            **self._worker_kwargs(grid),
        )
        if grid.cache is not None:
            # Flush boundaries drop memoized misses, so the coordinator
            # now observes every row the workers wrote to the store.
            grid.cache.flush()

        fresh = {}
        for task in grid.pending:
            label = grid.labels[task[0]]
            result = ledger.load_result(label, task[1])
            if result is None:
                raise LedgerError(
                    f"cluster run ended with task ({label!r}, {task[1]}) "
                    "unrecorded — the lease table converged without its "
                    "result, which should be impossible; re-run to resume"
                )
            fresh[task] = result
        return fresh


register_backend(ClusterBackend)
