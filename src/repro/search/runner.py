"""Repeat-experiment engine (Fig. 5 / Fig. 6 style).

The paper repeats every (strategy, scenario) experiment 10 times and
reports the top result per repeat (Fig. 5) and the step-wise reward
averaged over repeats (Fig. 6).  :func:`run_grid` drives many
(strategy, scenario) jobs, each a :class:`RepeatJob`, at once so whole
experiment grids fan out together; one experiment is a grid of one
job.  :meth:`RepeatJob.run` is where every search starts, and
:func:`repro.core.study.run_study` is the front end that builds the
jobs from a study spec.

Execution dispatches through the pluggable backend registry
(:mod:`repro.parallel.pool`):

* ``"serial"`` — the historical in-process loop;
* ``"process"`` — repeats (across *all* jobs) spread over a fork-based
  process pool;
* ``"cluster"`` — repeats leased to cooperating worker processes
  (spawnable on other machines sharing the ledger file) with
  heartbeats and stale-lease re-issue (:mod:`repro.parallel.cluster`).

Third-party backends registered with
:func:`repro.parallel.pool.register_backend` are equally valid names.

Every repeat derives its seed as ``hash_seed("repeat", master_seed,
repeat)`` regardless of backend or scheduling, and every backend runs
a task through the same function, :meth:`RepeatJob.run`, so results
are bit-identical at any worker count.  An optional shared persistent
:class:`repro.parallel.EvalCache` warm-starts evaluations: each
process that runs tasks — the serial loop, a pool worker, a cluster
worker — writes through it over a connection of its own.

An optional :class:`repro.parallel.RunLedger` makes a grid
crash-safe: completed (job, repeat) results are persisted as they
finish, in-flight searches checkpoint their strategy state every
``checkpoint_every`` batches, and re-running the same grid against the
same ledger loads finished repeats and resumes interrupted ones from
their last checkpoint — bit-identical to an uninterrupted run at the
same batch size (the killed cells of ``tests/integration/equivalence.py``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.archive import ArchiveEntry
from repro.core.evaluator import CodesignEvaluator
from repro.parallel.cache import EvalCache
from repro.parallel.ledger import RunLedger
from repro.parallel.pool import ExecutionBackend, build_backend
from repro.search.base import SearchResult, SearchStrategy
from repro.utils.rng import hash_seed

__all__ = [
    "GridRun",
    "RepeatJob",
    "RepeatOutcome",
    "run_grid",
    "mean_reward_trace",
]

StrategyFactory = Callable[[int], SearchStrategy]
EvaluatorFactory = Callable[[], CodesignEvaluator]


@dataclass(frozen=True)
class RepeatJob:
    """One (strategy, scenario) experiment to be repeated."""

    label: str
    strategy_factory: StrategyFactory
    evaluator_factory: EvaluatorFactory
    cache_scenario: str | None = None  # EvalCache namespace override
    # Two-tier mode: maps the job's exact evaluator to a
    # repro.search.two_tier.TwoTierFilter (surrogate-ranked proposal
    # filtering); None runs the plain exact-only loop.  A factory, not
    # a filter, because every task builds its own evaluator and the
    # filter must wrap *that* evaluator's twin.
    two_tier_factory: Callable[[CodesignEvaluator], object] | None = None

    def run(
        self,
        repeat: int,
        *,
        num_steps: int,
        master_seed: int,
        batch_size: int,
        checkpoint_every: int,
        cache: EvalCache | None = None,
        ledger: RunLedger | None = None,
    ) -> SearchResult:
        """Search repeat ``repeat`` of this job in this process.

        The one body of a grid task: the serial and process backends
        run it through :meth:`GridRun.run_task`, cluster workers from
        their claim loop, so what a task computes never depends on
        where it runs.  ``cache`` is attached when the factory's
        evaluator has none; ``ledger`` checkpoints the search, and
        recording the result is left to the caller (the cluster
        records through its lease).  The evaluator's cache is flushed
        at the end, so the task's new rows reach the store.
        """
        evaluator = self.evaluator_factory()
        if cache is not None and evaluator.eval_cache is None:
            evaluator.attach_eval_cache(cache, scenario=self.cache_scenario)
        strategy = self.strategy_factory(hash_seed("repeat", master_seed, repeat))
        result = strategy.run(
            evaluator,
            num_steps,
            batch_size=batch_size,
            checkpoint=(
                ledger.checkpoint(self.label, repeat) if ledger is not None else None
            ),
            checkpoint_every=checkpoint_every,
            two_tier=(
                self.two_tier_factory(evaluator)
                if self.two_tier_factory is not None
                else None
            ),
        )
        if evaluator.eval_cache is not None:
            evaluator.eval_cache.flush()
        return result


@dataclass
class RepeatOutcome:
    """All repeats of one (strategy, scenario) experiment."""

    strategy: str
    scenario: str
    results: list[SearchResult] = field(default_factory=list)

    def best_entries(self) -> list[ArchiveEntry]:
        """Best feasible entry of each repeat (max 1 point per repeat)."""
        return [r.best for r in self.results if r.best is not None]

    def top_rewards(self) -> np.ndarray:
        return np.array([e.reward for e in self.best_entries()])

    def hit_rate(self) -> float:
        """Fraction of repeats that found any feasible point."""
        if not self.results:
            return 0.0
        return len(self.best_entries()) / len(self.results)

    def mean_best_reward(self) -> float:
        rewards = self.top_rewards()
        return float(rewards.mean()) if len(rewards) else float("nan")


def _coerce_cache(eval_cache: EvalCache | str | Path | None) -> EvalCache | None:
    if eval_cache is None or isinstance(eval_cache, EvalCache):
        return eval_cache
    return EvalCache(eval_cache)


def _coerce_ledger(ledger: RunLedger | str | Path | None) -> RunLedger | None:
    if ledger is None or isinstance(ledger, RunLedger):
        return ledger
    return RunLedger(ledger)


@dataclass
class GridRun:
    """One prepared grid execution, handed to an execution backend.

    Everything :func:`run_grid` resolves before dispatch lives here:
    the task bag (``pending`` excludes ledger-restored results) and
    the run parameters.  Backends schedule *where* the pending tasks
    run; each one runs through :meth:`RepeatJob.run` — via
    :meth:`run_task` on the serial and process backends, via the
    claim loop on the cluster — so every backend computes identical
    results.
    """

    jobs: list[RepeatJob]
    labels: list[str]
    tasks: list[tuple[int, int]]
    pending: list[tuple[int, int]]
    completed: dict[tuple[int, int], SearchResult]
    num_steps: int
    num_repeats: int
    master_seed: int
    batch_size: int
    checkpoint_every: int
    workers: int | None
    cache: EvalCache | None
    ledger: RunLedger | None

    def run_task(self, task: tuple[int, int]) -> SearchResult:
        """Run one (job, repeat) task in this process and record it."""
        job_index, repeat = task
        job = self.jobs[job_index]
        result = job.run(
            repeat,
            num_steps=self.num_steps,
            master_seed=self.master_seed,
            batch_size=self.batch_size,
            checkpoint_every=self.checkpoint_every,
            cache=self.cache,
            ledger=self.ledger,
        )
        if self.ledger is not None:
            self.ledger.record_done(job.label, repeat, result)
        return result

    def prepare_for_workers(self, backend: str) -> None:
        """Pre-fork checks + flush, shared by the forking backends.

        Workers inherit the cache and the ledger objects through fork
        and open connections of their own to the same files, so both
        need a path; the flush makes everything known so far visible
        to them.
        """
        if self.cache is not None and self.cache.path is None:
            warnings.warn(
                f"{backend} backend cannot share a path-less (in-memory) "
                "EvalCache with workers; each worker caches into an empty "
                "store of its own — give the cache a file path",
                RuntimeWarning,
                stacklevel=3,
            )
        if self.ledger is not None and self.ledger.path is None:
            raise ValueError(
                f"the {backend} backend requires a file-backed ledger "
                "(an in-memory RunLedger cannot cross a fork)"
            )
        if self.cache is not None:
            self.cache.flush()


def run_grid(
    jobs: list[RepeatJob],
    num_steps: int,
    num_repeats: int = 10,
    master_seed: int = 0,
    backend: str | ExecutionBackend = "serial",
    workers: int | None = None,
    eval_cache: EvalCache | str | Path | None = None,
    batch_size: int = 1,
    ledger: RunLedger | str | Path | None = None,
    checkpoint_every: int = 10,
    ledger_context: dict | None = None,
) -> dict[str, RepeatOutcome]:
    """Run every job ``num_repeats`` times; returns label -> outcome.

    The task bag is the full (job, repeat) cross product, so with the
    process backend independent jobs parallelize against each other,
    not just their own repeats.  Per-repeat seeds depend only on
    ``master_seed`` and the repeat index (matching the historical
    serial harness), never on the job or the backend.

    ``backend`` names a registered
    :class:`~repro.parallel.pool.ExecutionBackend` (see
    :func:`repro.parallel.pool.list_backends`) or is an already-built
    backend instance (how :func:`repro.core.study.run_study` passes
    ``execution.backend_params`` through).  Built-ins: ``"serial"``,
    ``"process"`` (fork pool), and ``"cluster"`` (ledger-coordinated
    worker processes; see :mod:`repro.parallel.cluster`).

    ``batch_size`` is handed to every strategy's ask/tell driver: each
    iteration proposes up to that many points and evaluates them in one
    ``evaluate_batch`` call.  At the default of 1 results are
    bit-identical to the historic per-point loop; larger batches trade
    exact reproduction of the serial trace for per-strategy batch
    semantics (rollout batches, generations) and throughput.

    ``ledger`` (a :class:`repro.parallel.RunLedger` or a path) makes
    the grid crash-safe: each finished (job, repeat) is persisted as
    it completes, in-flight searches checkpoint every
    ``checkpoint_every`` batches, and re-running the same grid against
    the same ledger loads finished repeats and resumes interrupted
    ones from their last checkpoint — bit-identical to an
    uninterrupted run.  The ledger pins the run configuration
    (steps/repeats/seed/batch size/labels) and refuses to mix results
    from a different one.  Job labels are opaque strings, so anything
    else the outcome depends on — scenario definitions, evaluator
    parameters — should be passed as ``ledger_context`` (a
    JSON-serializable dict) to be pinned alongside; see
    :func:`repro.core.study.run_study`, which pins the study spec and
    its resolved scenario definitions this way.
    """
    if num_repeats <= 0:
        raise ValueError("num_repeats must be positive")
    backend_obj = (
        backend if isinstance(backend, ExecutionBackend) else build_backend(backend)
    )
    if not jobs:
        return {}
    cache = _coerce_cache(eval_cache)
    ledger = _coerce_ledger(ledger)
    tasks = [(j, r) for j in range(len(jobs)) for r in range(num_repeats)]
    labels = [job.label for job in jobs]
    if len(set(labels)) != len(labels):
        raise ValueError(f"job labels must be unique, got {labels}")

    completed: dict[tuple[int, int], SearchResult] = {}
    if ledger is not None:
        ledger.begin_run(
            {
                "num_steps": num_steps,
                "num_repeats": num_repeats,
                "master_seed": master_seed,
                "batch_size": batch_size,
                "labels": labels,
                "context": ledger_context or {},
            }
        )
        for job_index, repeat in tasks:
            result = ledger.load_result(labels[job_index], repeat)
            if result is not None:
                completed[(job_index, repeat)] = result
    pending = [task for task in tasks if task not in completed]

    grid = GridRun(
        jobs=jobs,
        labels=labels,
        tasks=tasks,
        pending=pending,
        completed=completed,
        num_steps=num_steps,
        num_repeats=num_repeats,
        master_seed=master_seed,
        batch_size=batch_size,
        checkpoint_every=checkpoint_every,
        workers=workers,
        cache=cache,
        ledger=ledger,
    )
    if ledger is not None:
        # Pin what actually executes this run (requested vs effective
        # backend) so resumed/served studies can report it faithfully.
        ledger.record_execution(backend_obj.describe_execution(grid))
    fresh = backend_obj.run_tasks(grid)

    outcomes: dict[str, RepeatOutcome] = {}
    for task in tasks:
        result = completed[task] if task in completed else fresh[task]
        label = labels[task[0]]
        if label not in outcomes:
            outcomes[label] = RepeatOutcome(
                strategy=result.strategy, scenario=result.scenario
            )
        outcomes[label].results.append(result)
    return outcomes


def mean_reward_trace(
    outcome: RepeatOutcome, window: int = 100, best_so_far: bool = False
) -> np.ndarray:
    """Step-wise reward averaged over repeats (Fig. 6's curves).

    Traces are truncated to the shortest repeat, averaged across
    repeats, then smoothed with a trailing ``window``-step mean.  With
    ``best_so_far`` the running-max trace is averaged instead.
    """
    traces = [
        r.best_so_far_trace() if best_so_far else r.reward_trace()
        for r in outcome.results
    ]
    length = min(len(t) for t in traces)
    stacked = np.vstack([t[:length] for t in traces])
    mean = np.nanmean(stacked, axis=0)
    if window <= 1:
        return mean
    # NaN-aware trailing mean via cumulative sums: O(n) instead of the
    # O(n * window) per-step nanmean loop.  NaNs (steps before the
    # first feasible point in best-so-far traces) contribute neither
    # to the window sum nor to its count; an all-NaN window stays NaN.
    finite = ~np.isnan(mean)
    cum_sum = np.concatenate(([0.0], np.cumsum(np.where(finite, mean, 0.0))))
    cum_cnt = np.concatenate(([0], np.cumsum(finite)))
    hi = np.arange(1, len(mean) + 1)
    lo = np.maximum(hi - window, 0)
    win_sum = cum_sum[hi] - cum_sum[lo]
    win_cnt = cum_cnt[hi] - cum_cnt[lo]
    return np.where(win_cnt > 0, win_sum / np.maximum(win_cnt, 1), np.nan)
