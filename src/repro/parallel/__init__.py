"""Parallel execution engine: process fan-out + persistent eval cache.

Orthogonal pieces that together make the repeat experiments run at
hardware speed without changing a single result:

* :mod:`repro.parallel.pool` — the pluggable
  :class:`ExecutionBackend` protocol + registry: ``serial`` and
  ``process`` (a fork pool) built in, each driving a grid's (job,
  repeat) tasks through one entry point, ``run_tasks``;
* :mod:`repro.parallel.cluster` — the ``cluster`` backend: worker
  processes (spawnable on other machines sharing a state dir)
  coordinating through ledger-leased tasks with heartbeats and
  stale-lease re-issue; ``python -m repro.parallel.worker`` joins one;
* :mod:`repro.parallel.cache` — :class:`EvalCache`, an on-disk store of
  ``(scenario, spec_hash, config_key) -> (accuracy, latency_s,
  area_mm2)`` that evaluators consult before computing; every process
  that holds it, forked workers included, reads and writes it over a
  connection of its own;
* :mod:`repro.parallel.ledger` — :class:`RunLedger`, the crash-safe
  run ledger: completed (job, repeat) results, mid-search strategy
  checkpoints, and the cluster's task-lease table, so interrupted
  grids resume bit-identically instead of restarting from step 0.

The repeat harness (:func:`repro.search.runner.run_grid`) wires them
together behind a registry-validated ``backend`` name and a ``ledger``
argument; every backend runs a task through the same
:meth:`repro.search.runner.RepeatJob.run`, so under a fixed master seed
every backend is result-for-result identical at any worker count,
interrupted or not.
"""

from repro.parallel.cache import CacheEntry, EvalCache
from repro.parallel.ledger import LedgerError, MemoryCheckpoint, RunLedger
from repro.parallel.pool import (
    BackendError,
    ExecutionBackend,
    build_backend,
    get_backend,
    list_backends,
    register_backend,
    resolve_workers,
)

__all__ = [
    "BackendError",
    "CacheEntry",
    "EvalCache",
    "ExecutionBackend",
    "LedgerError",
    "MemoryCheckpoint",
    "RunLedger",
    "build_backend",
    "get_backend",
    "list_backends",
    "register_backend",
    "resolve_workers",
]
