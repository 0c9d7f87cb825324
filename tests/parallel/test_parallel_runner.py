"""Tests for the parallel repeat engine: cache rows and connections
across forks, ledgered grids.  That every backend returns the serial
loop's bits is the equivalence matrix's job
(``tests/integration/equivalence.py``)."""

import os

import numpy as np
import pytest

from repro.core.evaluator import build_evaluator
from repro.core.scenarios import unconstrained
from repro.core.search_space import JointSearchSpace
from repro.core.study import replace_execution, run_study
from repro.experiments.common import Scale
from repro.experiments.presets import get_preset
from repro.parallel import EvalCache
from repro.search.combined import CombinedSearch
from repro.search.random_search import RandomSearch
from repro.search.runner import RepeatJob, run_grid

#: The grid the ``job`` fixture runs at.
GRID = dict(num_steps=40, num_repeats=3, master_seed=0)


def unconstrained_evaluator(bundle):
    """A new database evaluator under the unconstrained scenario."""
    return build_evaluator(
        "database", unconstrained(bundle.bounds), bundle=bundle, platform=bundle.platform
    )


def random_job(bundle, evaluator_factory) -> RepeatJob:
    """Random search over ``bundle``'s cells, scored by ``evaluator_factory``."""
    space = JointSearchSpace(cell_encoding=bundle.cell_encoding)
    return RepeatJob(
        "job", lambda seed: RandomSearch(space, seed=seed), evaluator_factory
    )


@pytest.fixture
def job(micro4_bundle):
    space = JointSearchSpace(cell_encoding=micro4_bundle.cell_encoding)
    return RepeatJob(
        "job",
        strategy_factory=lambda seed: CombinedSearch(space, seed=seed),
        evaluator_factory=lambda: unconstrained_evaluator(micro4_bundle),
    )


def assert_outcomes_identical(a, b):
    assert len(a.results) == len(b.results)
    for ra, rb in zip(a.results, b.results):
        assert np.array_equal(ra.reward_trace(), rb.reward_trace(), equal_nan=True)
        assert (ra.best is None) == (rb.best is None)
        if ra.best is not None:
            assert ra.best.step == rb.best.step
            assert ra.best.reward == rb.best.reward
            assert ra.best.spec.spec_hash() == rb.best.spec.spec_hash()


class TestGridArguments:
    def test_unknown_backend_rejected(self, job):
        with pytest.raises(ValueError):
            run_grid([job], **GRID, backend="gpu")

    def test_zero_repeats_rejected(self, job):
        with pytest.raises(ValueError):
            run_grid([job], **{**GRID, "num_repeats": 0})

    def test_zero_workers_rejected(self, job):
        with pytest.raises(ValueError, match="workers"):
            run_grid([job], **GRID, backend="process", workers=0)


class TestWarmStarts:
    def test_workers_merge_rows_back(self, job, tmp_path):
        cache = EvalCache(tmp_path / "ec.sqlite")
        run_grid([job], **GRID, backend="process", workers=2, eval_cache=cache)
        assert len(cache) > 0
        assert cache.stats["pending"] == 0  # merged and flushed

    def test_shared_evaluator_rows_still_merge(self, micro4_bundle, tmp_path):
        # A factory returning one shared evaluator (the documented serial
        # idiom) must not lose cache rows or stats in process mode.
        shared = unconstrained_evaluator(micro4_bundle)
        grid = dict(num_steps=25, num_repeats=4, backend="process", workers=2)
        shared_cache = EvalCache(tmp_path / "shared.sqlite")
        run_grid(
            [random_job(micro4_bundle, lambda: shared)],
            **grid,
            eval_cache=shared_cache,
        )
        fresh_cache = EvalCache(tmp_path / "fresh.sqlite")
        run_grid(
            [random_job(micro4_bundle, lambda: unconstrained_evaluator(micro4_bundle))],
            **grid,
            eval_cache=fresh_cache,
        )
        assert len(shared_cache) == len(fresh_cache) > 0
        assert shared_cache.hits + shared_cache.misses > 0

    def test_cache_path_accepted_directly(self, job, tmp_path):
        path = tmp_path / "ec.sqlite"
        run_grid([job], **GRID, eval_cache=path)
        assert len(EvalCache(path)) > 0


class _LoggedConnection:
    """A sqlite connection that logs "<pid running> <pid that opened>"
    for every statement and commit run on it."""

    def __init__(self, conn, log_path):
        self._conn = conn
        self._log_path = log_path
        self._opener = os.getpid()

    def _log(self):
        with open(self._log_path, "a") as log:  # fork-safe append
            log.write(f"{os.getpid()} {self._opener}\n")

    def execute(self, *args):
        self._log()
        return self._conn.execute(*args)

    def executemany(self, *args):
        self._log()
        return self._conn.executemany(*args)

    def commit(self):
        self._log()
        return self._conn.commit()

    def close(self):
        return self._conn.close()


class _SpyCache(EvalCache):
    """An EvalCache whose every connection is a :class:`_LoggedConnection`."""

    def __init__(self, path, log_path):
        self.log_path = log_path
        super().__init__(path)

    def _open(self):
        return _LoggedConnection(super()._open(), self.log_path)


def foreign_queries(log_path) -> list[str]:
    """Logged statements a process ran on a connection another opened."""
    lines = log_path.read_text().splitlines() if log_path.exists() else []
    return [line for line in lines if len(set(line.split())) != 1]


class TestWorkerCacheForkGuard:
    """Regression: a factory closing over an evaluator with a live
    attached EvalCache must not leak the parent's sqlite connection
    into forked workers — every process queries the store only over a
    connection it opened itself (the cache reopens on a pid change)."""

    def test_forked_workers_never_touch_parent_connection(
        self, micro4_bundle, tmp_path
    ):
        log_path = tmp_path / "spy.log"
        spy = _SpyCache(tmp_path / "spy.sqlite", log_path)
        shared = unconstrained_evaluator(micro4_bundle)
        shared.attach_eval_cache(spy, scenario="guard")

        outcome = run_grid(
            [random_job(micro4_bundle, lambda: shared)],
            num_steps=20,
            num_repeats=4,
            backend="process",
            workers=2,
        )["job"]
        assert len(outcome.results) == 4
        assert log_path.exists()  # the workers did use the store
        assert foreign_queries(log_path) == []

    def test_detached_workers_still_warm_start_from_inherited_path(
        self, micro4_bundle, tmp_path
    ):
        # A cache inherited through the factory's evaluator keeps
        # caching in the workers — over their own connections to its
        # path — and their new rows persist even though run_grid
        # itself was never handed an eval_cache.
        store_path = tmp_path / "warm.sqlite"
        accuracy_log = tmp_path / "accuracy_calls.log"

        def make_shared():
            shared = unconstrained_evaluator(micro4_bundle)
            inner = shared.accuracy_fn

            def logging_accuracy(spec):
                with open(accuracy_log, "a") as log:  # fork-safe append
                    log.write("call\n")
                return inner(spec)

            shared.accuracy_fn = logging_accuracy
            shared.attach_eval_cache(EvalCache(store_path), scenario="warm")
            return shared

        def run_process(shared):
            return run_grid(
                [random_job(micro4_bundle, lambda: shared)],
                num_steps=20,
                num_repeats=4,
                backend="process",
                workers=2,
            )["job"]

        cold = run_process(make_shared())
        # The workers flushed their rows into the store.
        assert len(EvalCache(store_path)) > 0
        cold_calls = len(accuracy_log.read_text().splitlines())
        assert cold_calls > 0

        # A second run must be served entirely from the persisted rows
        # — every task in every worker, not just the first one,
        # consults the store.
        warm = run_process(make_shared())
        warm_calls = len(accuracy_log.read_text().splitlines()) - cold_calls
        assert warm_calls == 0
        assert_outcomes_identical(cold, warm)


class TestWorkerConnectionHygiene:
    def test_per_task_factory_caches_do_not_leak_fds(
        self, micro4_bundle, tmp_path
    ):
        # A factory that opens a fresh evaluator + EvalCache per task
        # must not grow a long-lived worker's open-fd count: sqlite
        # connections sit in reference cycles, so the worker has to
        # close them deterministically rather than trust refcounting.
        import os

        store_path = tmp_path / "perfactory.sqlite"
        fd_log = tmp_path / "fds.log"

        def factory():
            evaluator = unconstrained_evaluator(micro4_bundle)
            evaluator.attach_eval_cache(EvalCache(store_path), scenario="fd")
            inner = evaluator.accuracy_fn

            def probing_accuracy(spec):
                with open(fd_log, "a") as log:
                    log.write(
                        f"{os.getpid()} {len(os.listdir('/proc/self/fd'))}\n"
                    )
                return inner(spec)

            evaluator.accuracy_fn = probing_accuracy
            return evaluator

        run_grid(
            [random_job(micro4_bundle, factory)],
            num_steps=15,
            num_repeats=12,
            backend="process",
            workers=2,
        )
        per_pid: dict[str, list[int]] = {}
        for line in fd_log.read_text().splitlines():
            pid, fds = line.split()
            per_pid.setdefault(pid, []).append(int(fds))
        for pid, fds in per_pid.items():
            assert max(fds) - min(fds) <= 2, (
                f"worker {pid} fd count grew: {sorted(set(fds))}"
            )
        # ... and the per-task rows still reached the shared store.
        assert len(EvalCache(store_path)) > 0


class TestLedgerGrid:
    """run_grid + RunLedger: crash-safety and resume equivalence."""

    def grid_kwargs(self, micro4_bundle, accuracy_wrapper=None):
        space = JointSearchSpace(cell_encoding=micro4_bundle.cell_encoding)
        jobs = []
        for name, factory, strategy in (
            ("u/random", unconstrained, RandomSearch),
            ("u/combined", unconstrained, CombinedSearch),
        ):
            scenario = factory(micro4_bundle.bounds)

            def evaluator_factory(sc=scenario):
                evaluator = build_evaluator(
                    "database",
                    sc,
                    bundle=micro4_bundle,
                    platform=micro4_bundle.platform,
                )
                if accuracy_wrapper is not None:
                    evaluator.accuracy_fn = accuracy_wrapper(evaluator.accuracy_fn)
                return evaluator

            jobs.append(
                RepeatJob(
                    label=name,
                    strategy_factory=lambda seed, cls=strategy: cls(space, seed=seed),
                    evaluator_factory=evaluator_factory,
                )
            )
        return dict(jobs=jobs, num_steps=25, num_repeats=2, master_seed=1)

    def test_crashed_grid_resumes_bit_identical(self, micro4_bundle, tmp_path):
        reference = run_grid(**self.grid_kwargs(micro4_bundle))

        class Crash(Exception):
            pass

        calls = [0]

        def crash_after(n):
            def wrapper(inner):
                def accuracy_fn(spec):
                    calls[0] += 1
                    if calls[0] > n:
                        raise Crash()
                    return inner(spec)

                return accuracy_fn

            return wrapper

        ledger_path = tmp_path / "grid.ledger"
        # Each 25-step task asks for ~10 distinct accuracies (the rest
        # are memoized); 16 lets the first task finish and kills the
        # second mid-flight.
        with pytest.raises(Crash):
            run_grid(
                **self.grid_kwargs(micro4_bundle, accuracy_wrapper=crash_after(16)),
                ledger=ledger_path,
                checkpoint_every=2,
            )
        from repro.parallel import RunLedger

        progress = RunLedger(ledger_path).progress()
        assert progress["done"] >= 1  # the crash landed mid-grid
        assert progress["done"] < 4

        resumed = run_grid(
            **self.grid_kwargs(micro4_bundle),
            ledger=ledger_path,
            checkpoint_every=2,
        )
        assert set(resumed) == set(reference)
        for label in reference:
            assert_outcomes_identical(reference[label], resumed[label])

    def test_process_backend_records_and_resumes(self, micro4_bundle, tmp_path):
        reference = run_grid(**self.grid_kwargs(micro4_bundle))
        ledger_path = tmp_path / "grid.ledger"
        first = run_grid(
            **self.grid_kwargs(micro4_bundle),
            backend="process",
            workers=2,
            ledger=ledger_path,
        )
        from repro.parallel import RunLedger

        assert RunLedger(ledger_path).progress()["done"] == 4
        # A second invocation is served entirely from the ledger.
        resumed = run_grid(
            **self.grid_kwargs(
                micro4_bundle,
                accuracy_wrapper=lambda inner: pytest.fail,  # never evaluated
            ),
            backend="process",
            workers=2,
            ledger=ledger_path,
        )
        for label in reference:
            assert_outcomes_identical(reference[label], first[label])
            assert_outcomes_identical(reference[label], resumed[label])

    def test_in_memory_ledger_rejected_on_process_backend(self, micro4_bundle):
        from repro.parallel import RunLedger

        with pytest.raises(ValueError, match="in-memory"):
            run_grid(
                **self.grid_kwargs(micro4_bundle),
                backend="process",
                workers=2,
                ledger=RunLedger(),
            )

    def test_mismatched_run_configuration_rejected(self, micro4_bundle, tmp_path):
        from repro.parallel import LedgerError

        ledger_path = tmp_path / "grid.ledger"
        kwargs = self.grid_kwargs(micro4_bundle)
        run_grid(**kwargs, ledger=ledger_path)
        with pytest.raises(LedgerError):
            run_grid(**kwargs, batch_size=16, ledger=ledger_path)

    def test_duplicate_labels_rejected(self, micro4_bundle):
        kwargs = self.grid_kwargs(micro4_bundle)
        kwargs["jobs"][1] = RepeatJob(
            label=kwargs["jobs"][0].label,
            strategy_factory=kwargs["jobs"][1].strategy_factory,
            evaluator_factory=kwargs["jobs"][1].evaluator_factory,
        )
        with pytest.raises(ValueError, match="unique"):
            run_grid(**kwargs)


class TestLedgerScenarioPinning:
    def test_edited_scenario_definition_refused_on_resume(
        self, micro4_bundle, tmp_path
    ):
        # Same scenario *name*, different constraint definition: the
        # ledger must refuse instead of stitching incompatible rows.
        from repro.parallel import LedgerError

        tiny = Scale(name="tiny", search_steps=10, num_repeats=1, fig7_target_scale=0.05)
        ledger_path = tmp_path / "study.ledger"

        def constrained(limit):
            return get_preset("search-study").with_overrides(
                {
                    "scenarios": [
                        {
                            "name": "custom",  # same name both times
                            "weights": [0.1, 0.8, 0.1],
                            "constraints": {"max_latency_ms": limit},
                        }
                    ]
                }
            )

        run_study(constrained(10.0), bundle=micro4_bundle, scale=tiny, ledger=ledger_path)
        with pytest.raises(LedgerError):
            run_study(
                constrained(20.0), bundle=micro4_bundle, scale=tiny, ledger=ledger_path
            )


class TestWorkerSharedPostForkCache:
    def test_factory_shared_cache_survives_across_tasks(
        self, micro4_bundle, tmp_path
    ):
        # A factory that lazily opens ONE cache per worker process and
        # attaches it to a fresh evaluator per task (a natural
        # warm-rows-across-tasks pattern) must keep working: the
        # harness must not close a cache the factory still references.
        store_path = tmp_path / "lazy.sqlite"
        holder: dict = {}

        def factory():
            import os

            if holder.get("pid") != os.getpid():
                holder["pid"] = os.getpid()
                holder["cache"] = EvalCache(store_path)
            evaluator = unconstrained_evaluator(micro4_bundle)
            evaluator.attach_eval_cache(holder["cache"], scenario="lazy")
            return evaluator

        outcome = run_grid(
            [random_job(micro4_bundle, factory)],
            num_steps=15,
            num_repeats=6,
            backend="process",
            workers=2,
        )["job"]
        assert len(outcome.results) == 6
        reference = run_grid(
            [random_job(micro4_bundle, lambda: unconstrained_evaluator(micro4_bundle))],
            num_steps=15,
            num_repeats=6,
            backend="serial",
        )["job"]
        assert_outcomes_identical(reference, outcome)


class TestTrainerStoreAcrossFork:
    """The CIFAR-100 trainer persists outcomes through the study's
    EvalCache (``CachedTrainer.store``), a second holder of the cache
    object beside the evaluator: forked workers must reach the store
    over their own connections through it too."""

    @pytest.mark.parametrize("backend", ["process", "cluster"])
    def test_workers_train_over_their_own_connections(
        self, backend, tmp_path, monkeypatch
    ):
        from repro.core.study import outcome_summary
        from repro.training.surrogate_trainer import SurrogateCifar100Trainer

        trainings = tmp_path / "trainings.log"
        train_and_score = SurrogateCifar100Trainer.train_and_score

        def logged_train_and_score(self, spec):
            with open(trainings, "a") as log:  # fork-safe append
                log.write("train\n")
            return train_and_score(self, spec)

        monkeypatch.setattr(
            SurrogateCifar100Trainer, "train_and_score", logged_train_and_score
        )
        spec = replace_execution(
            get_preset("fig7"),
            backend=backend,
            workers=2,
            num_steps=40,
            num_repeats=2,
        )
        log_path = tmp_path / "spy.log"

        def run(name):
            return run_study(
                spec,
                eval_cache=_SpyCache(tmp_path / "store.sqlite", log_path),
                ledger=tmp_path / f"{name}.ledger",
            )

        cold = run("cold")
        cold_trainings = len(trainings.read_text().splitlines())
        assert cold_trainings > 0
        assert foreign_queries(log_path) == []

        warm = run("warm")
        assert len(trainings.read_text().splitlines()) == cold_trainings
        assert outcome_summary(warm) == outcome_summary(cold)
