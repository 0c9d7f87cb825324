"""Pluggable execution backends for embarrassingly parallel work.

The repeat experiments (Fig. 5/6, Tables 2-3) are bags of fully
independent searches: every (strategy, scenario, repeat) task owns its
seed and shares only read-only inputs (the enumerated space bundle and
the evaluation cache).  This module defines *how* such a bag executes:

* :class:`ExecutionBackend` — the protocol every backend implements:
  one entry point, ``run_tasks``, over a prepared
  :class:`~repro.search.runner.GridRun`;
* a registry (:func:`register_backend` / :func:`get_backend` /
  :func:`list_backends` / :func:`build_backend`), a
  :class:`repro.utils.registry.Registry` like every other recipe
  table, so backend names are validated in exactly one place and
  third-party backends join the same table;
* the two built-in single-host backends: :class:`SerialBackend` (the
  historical in-process loop) and :class:`ProcessBackend` (a
  fork-based process pool).  The ``cluster`` backend — multiple
  worker *processes*, possibly on different machines, coordinating
  through a shared :class:`~repro.parallel.ledger.RunLedger` — lives
  in :mod:`repro.parallel.cluster` and registers itself on import.

The process pool uses the ``fork`` start method so task closures —
strategy and evaluator factories capturing the multi-hundred-MB
latency matrix — are inherited by workers copy-on-write instead of
being pickled.  Only task indices and results cross the process
boundary.  Where ``fork`` is unavailable the backend degrades to the
serial path, which is always behaviorally identical: determinism comes
from per-task seeds, never from execution order.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings

from repro.utils.registry import Registry, check_params, init_param_names

__all__ = [
    "BackendError",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "register_backend",
    "get_backend",
    "list_backends",
    "build_backend",
    "validate_backend_params",
    "fork_available",
    "resolve_workers",
]

#: True inside forked workers (pool and cluster): a process-backend
#: grid started there runs in-process instead of forking a
#: pool-per-worker bomb.
_IN_WORKER = False

#: Inside a process-backend pool worker, the grid whose pending tasks
#: the pool runs — installed at fork by the pool initializer, so the
#: grid (and the closures it holds) is never pickled.
_POOL_GRID = None


def resolve_workers(workers: int | None) -> int:
    """Default worker count: all *usable* CPUs, at least 1."""
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return workers
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def _init_pool_worker(grid) -> None:
    global _POOL_GRID
    _mark_worker()
    _POOL_GRID = grid


def _run_pool_task(index: int):
    """Pending task ``index`` of the pool's grid, run in this worker.

    Returns the result plus the grid cache's hit/miss deltas, which
    the parent folds into its own counters.
    """
    grid = _POOL_GRID
    task = grid.pending[index]
    if grid.cache is None:
        return grid.run_task(task), 0, 0
    hits, misses = grid.cache.hits, grid.cache.misses
    result = grid.run_task(task)
    return result, grid.cache.hits - hits, grid.cache.misses - misses


class BackendError(ValueError):
    """A backend name or its declarative params could not be resolved."""


class ExecutionBackend:
    """How a bag of independent seeded tasks executes.

    Subclasses set :attr:`name` and implement :meth:`run_tasks` (drive
    a prepared grid of (job, repeat) searches).  Construction
    parameters become the backend's declarative params — a
    :class:`~repro.core.study.StudySpec` names a backend as
    ``execution.backend`` plus ``execution.backend_params`` and the
    study builder resolves it through :func:`build_backend`.

    Determinism contract: a backend schedules *which process runs
    which task*, never what a task computes.  Per-repeat seeds depend
    only on the master seed and the repeat index, so every backend
    must produce bit-identical results for the same grid.
    """

    #: Registry key; subclasses must override.
    name: str = ""

    def run_tasks(self, grid) -> dict:
        """Run ``grid``'s pending (job, repeat) tasks; task -> result.

        ``grid`` is a :class:`repro.search.runner.GridRun`: the
        prepared task bag plus :meth:`~repro.search.runner.GridRun.run_task`,
        which runs and records one task in the calling process, and
        :meth:`~repro.search.runner.GridRun.prepare_for_workers`, the
        checks a backend makes before it forks.
        """
        raise NotImplementedError

    def describe_execution(self, grid) -> dict:
        """Ledger-recordable summary of how ``grid`` will execute.

        ``requested`` is the backend's registered name; ``effective``
        is what will actually run the tasks (e.g. the process backend
        degrades to ``serial`` where ``fork`` is unavailable).  The
        run ledger records this per run so resumed or served studies
        can report which backend really executed them.
        """
        return {"requested": self.name, "effective": self.name}


class SerialBackend(ExecutionBackend):
    """The historical in-process loop: tasks run one by one, in order."""

    name = "serial"

    def run_tasks(self, grid) -> dict:
        return {task: grid.run_task(task) for task in grid.pending}


class ProcessBackend(ExecutionBackend):
    """Fork-based process pool spreading tasks across local CPUs."""

    name = "process"

    def _pool_size(self, grid) -> int:
        """Worker processes for ``grid``; 1 runs it in this process."""
        if _IN_WORKER or not fork_available():
            return 1
        return min(resolve_workers(grid.workers), max(len(grid.pending), 1))

    def run_tasks(self, grid) -> dict:
        grid.prepare_for_workers(self.name)
        workers = self._pool_size(grid)
        if workers == 1:
            if not fork_available():
                warnings.warn(
                    "process backend needs the 'fork' start method; running serially",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return {task: grid.run_task(task) for task in grid.pending}
        ctx = multiprocessing.get_context("fork")
        # With fork, initargs reach the workers through the fork itself,
        # never through pickling; only indices and results are pickled.
        with ctx.Pool(
            processes=workers, initializer=_init_pool_worker, initargs=(grid,)
        ) as pool:
            payloads = pool.map(
                _run_pool_task, range(len(grid.pending)), chunksize=1
            )
        fresh = {}
        for task, (result, hits, misses) in zip(grid.pending, payloads):
            fresh[task] = result
            if grid.cache is not None:
                # Fold worker-side lookups into the parent's counters so
                # hit-rate reporting covers the whole run.
                grid.cache.hits += hits
                grid.cache.misses += misses
        return fresh

    def describe_execution(self, grid) -> dict:
        description = super().describe_execution(grid)
        description["effective"] = "process" if self._pool_size(grid) > 1 else "serial"
        description["workers"] = min(
            resolve_workers(grid.workers), max(len(grid.pending), 1)
        )
        return description


#: The cluster module is imported on the first lookup so it can register
#: itself without an import cycle (it pulls in the ledger).
_REGISTRY: Registry[type[ExecutionBackend]] = Registry(
    "backend", BackendError, builtins=("repro.parallel.cluster",)
)


def register_backend(
    cls: type[ExecutionBackend] | None = None,
    name: str | None = None,
    overwrite: bool = False,
):
    """Register a backend class under ``name`` (default ``cls.name``).

    Usable directly (``register_backend(MyBackend)``) or as a class
    decorator; follows the :class:`~repro.utils.registry.Registry`
    duplicate policy (the same class again is a no-op).
    """

    def _register(backend_cls: type[ExecutionBackend]) -> type[ExecutionBackend]:
        return _REGISTRY.register(name or backend_cls.name, backend_cls, overwrite)

    return _register if cls is None else _register(cls)


def list_backends() -> list[str]:
    """Registered backend names, sorted."""
    return _REGISTRY.names()


def get_backend(name: str) -> type[ExecutionBackend]:
    """The backend class registered under ``name``."""
    return _REGISTRY.get(name)


def validate_backend_params(name: str, params: dict | None) -> None:
    """Check ``params`` names against the backend's constructor.

    Raises :class:`BackendError` naming the backend and the unknown
    field(s); value errors are left to construction time.
    """
    check_params(
        f"backend {name!r}", params, init_param_names(get_backend(name)), BackendError
    )


def build_backend(name: str, params: dict | None = None) -> ExecutionBackend:
    """Construct a registered backend from its flat parameter mapping."""
    validate_backend_params(name, params)
    cls = get_backend(name)
    try:
        return cls(**(params or {}))
    except BackendError:
        raise
    except (TypeError, ValueError) as err:
        raise BackendError(f"backend {name!r}: {err}") from err


register_backend(SerialBackend)
register_backend(ProcessBackend)

