"""Tests for the persistent evaluation cache."""

import multiprocessing
import sqlite3

import pytest

from repro.core.evaluator import build_evaluator
from repro.core.scenarios import unconstrained
from repro.nasbench.known_cells import resnet_cell
from repro.parallel import CacheEntry, EvalCache
from repro.training.cache import CachedTrainer
from repro.training.surrogate_trainer import SurrogateCifar100Trainer


def entry(scenario="s", spec="abc", config="(1,)", acc=71.5, lat=0.02, area=150.0):
    return CacheEntry(scenario, spec, config, acc, lat, area)


class TestRoundTrip:
    def test_cold_write_warm_read(self, tmp_path):
        path = tmp_path / "ec.sqlite"
        with EvalCache(path) as cache:
            cache.put(entry())
            assert cache.flush() == 1
        with EvalCache(path) as warm:
            hit = warm.get("s", "abc", "(1,)")
            assert hit is not None
            assert hit.accuracy == 71.5
            assert hit.latency_s == 0.02
            assert hit.area_mm2 == 150.0
            assert warm.stats["hits"] == 1
            assert len(warm) == 1

    def test_unevaluable_rows_round_trip(self, tmp_path):
        path = tmp_path / "ec.sqlite"
        with EvalCache(path) as cache:
            cache.put(entry(acc=None, lat=None, area=None))
            cache.flush()
        with EvalCache(path) as warm:
            hit = warm.get("s", "abc", "(1,)")
            assert hit is not None and hit.accuracy is None

    def test_extra_payload_round_trips(self, tmp_path):
        path = tmp_path / "ec.sqlite"
        with EvalCache(path) as cache:
            cache.put(
                CacheEntry("t", "abc", "-", 70.0, None, None, extra={"gpu_hours": 1.5})
            )
            cache.flush()
        assert EvalCache(path).get("t", "abc", "-").extra == {"gpu_hours": 1.5}

    def test_miss_counts(self):
        cache = EvalCache()
        assert cache.get("s", "nope", "(1,)") is None
        assert cache.stats["misses"] == 1

    def test_keys_are_namespaced(self, tmp_path):
        cache = EvalCache(tmp_path / "ec.sqlite")
        cache.put(entry(scenario="a"))
        cache.flush()
        assert cache.get("b", "abc", "(1,)") is None

    def test_pending_visible_before_flush(self):
        cache = EvalCache()
        cache.put(entry())
        assert cache.get("s", "abc", "(1,)").accuracy == 71.5

    def test_replace_keeps_single_row(self, tmp_path):
        cache = EvalCache(tmp_path / "ec.sqlite")
        cache.put(entry(acc=70.0))
        cache.flush()
        cache.put(entry(acc=71.0))
        cache.flush()
        assert len(cache) == 1
        assert EvalCache(tmp_path / "ec.sqlite").get("s", "abc", "(1,)").accuracy == 71.0


class TestMissStaleness:
    """Misses memoized before a flush must not outlive it (regression:
    a long-lived parent sharing a store with concurrent independent
    runs memoized its first miss forever and never saw their rows)."""

    def test_flush_invalidates_negative_memos(self, tmp_path):
        path = tmp_path / "ec.sqlite"
        reader = EvalCache(path)
        assert reader.get("s", "abc", "(1,)") is None  # memoized miss

        writer = EvalCache(path)  # a concurrent independent run
        writer.put(entry())
        writer.flush()

        assert reader.get("s", "abc", "(1,)") is None  # still memoized
        reader.flush()  # sync point: forget misses
        hit = reader.get("s", "abc", "(1,)")
        assert hit is not None and hit.accuracy == 71.5

    def test_positive_memos_survive_flush(self, tmp_path):
        path = tmp_path / "ec.sqlite"
        cache = EvalCache(path)
        cache.put(entry())
        cache.flush()
        assert cache.get("s", "abc", "(1,)") is not None
        cache.flush()
        hits_before = cache.hits
        assert cache.get("s", "abc", "(1,)").accuracy == 71.5
        assert cache.hits == hits_before + 1


class TestCloseDurability:
    """close()/__exit__ must persist what put() buffered.

    The regression: close() used to drop the connection without
    flushing, so ``with EvalCache(path) as c: c.put(...)`` — which
    reads as "durably persisted" — silently discarded every row still
    sitting in ``_pending``.
    """

    def test_close_flushes_pending_rows(self, tmp_path):
        path = tmp_path / "ec.sqlite"
        cache = EvalCache(path)
        cache.put(entry())
        cache.close()  # no explicit flush()
        assert EvalCache(path).get("s", "abc", "(1,)") is not None

    def test_context_manager_persists_buffered_rows(self, tmp_path):
        path = tmp_path / "ec.sqlite"
        with EvalCache(path) as cache:
            cache.put(entry())
        assert EvalCache(path).get("s", "abc", "(1,)") is not None

    def test_close_is_idempotent(self, tmp_path):
        cache = EvalCache(tmp_path / "ec.sqlite")
        cache.put(entry())
        cache.close()
        cache.close()  # flush sees an empty buffer; re-close is a no-op


class TestCorruption:
    def test_corrupted_file_falls_back_to_cold(self, tmp_path):
        path = tmp_path / "ec.sqlite"
        path.write_bytes(b"this is not a sqlite database at all" * 100)
        cache = EvalCache(path)
        assert cache.recovered
        assert len(cache) == 0
        cache.put(entry())
        cache.flush()
        assert EvalCache(path).get("s", "abc", "(1,)") is not None
        assert path.with_suffix(".sqlite.corrupt").exists()

    def test_truncated_database_falls_back(self, tmp_path):
        path = tmp_path / "ec.sqlite"
        with EvalCache(path) as cache:
            cache.put(entry())
            cache.flush()
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 3])
        try:
            cache = EvalCache(path)
            rows = len(cache)
        except sqlite3.DatabaseError:
            pytest.fail("corrupted store must not raise")
        assert rows == 0 or not cache.recovered


def _in_forked_child(fn):
    """Run ``fn()`` in a forked child; returns its exit code."""
    child = multiprocessing.get_context("fork").Process(target=fn)
    child.start()
    child.join(timeout=60)
    assert not child.is_alive()
    return child.exitcode


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required",
)
class TestForkInheritance:
    """A cache object inherited through fork opens its own connection."""

    def test_child_writes_through_its_own_connection(self, tmp_path):
        path = tmp_path / "ec.sqlite"
        cache = EvalCache(path)
        cache.put(entry())
        cache.flush()

        def child():
            assert cache.get("s", "abc", "(1,)") is not None
            cache.put(entry(spec="from-child"))
            assert cache.flush() == 1
            assert cache._conn is not parent_conn

        parent_conn = cache._conn
        assert _in_forked_child(child) == 0
        # The parent's connection is untouched and sees the child's row.
        assert cache._conn is parent_conn
        assert cache.get("s", "from-child", "(1,)") is not None
        assert len(cache) == 2

    def test_path_less_cache_opens_empty_in_the_child(self):
        cache = EvalCache()
        cache.put(entry())
        cache.flush()

        def child():
            assert len(cache) == 0
            cache.put(entry(spec="from-child"))
            cache.flush()
            assert len(cache) == 1

        assert _in_forked_child(child) == 0
        assert len(cache) == 1
        assert cache.get("s", "from-child", "(1,)") is None


class TestEvaluatorIntegration:
    def test_evaluator_consults_cache_before_computing(self, micro4_bundle):
        scenario = unconstrained(micro4_bundle.bounds)
        evaluator = build_evaluator(
            "database", scenario, bundle=micro4_bundle, platform=micro4_bundle.platform
        )
        cache = EvalCache()
        evaluator.attach_eval_cache(cache, scenario="test")
        spec = micro4_bundle.database.records[0].spec
        config = micro4_bundle.space.config_at(0)
        first = evaluator.evaluate(spec, config)
        assert cache.stats["misses"] == 1
        again = evaluator.evaluate(spec, config)
        assert cache.stats["hits"] >= 1
        assert again.metrics == first.metrics

    def test_warm_evaluator_matches_cold(self, micro4_bundle, tmp_path):
        scenario = unconstrained(micro4_bundle.bounds)
        path = tmp_path / "ec.sqlite"
        spec = micro4_bundle.database.records[1].spec
        config = micro4_bundle.space.config_at(17)

        cold_cache = EvalCache(path)
        cold = build_evaluator(
            "database", scenario, bundle=micro4_bundle, platform=micro4_bundle.platform
        )
        cold.attach_eval_cache(cold_cache, scenario="test")
        cold_result = cold.evaluate(spec, config)
        cold_cache.flush()

        warm_cache = EvalCache(path)
        warm = build_evaluator(
            "database", scenario, bundle=micro4_bundle, platform=micro4_bundle.platform
        )
        warm.attach_eval_cache(warm_cache, scenario="test")
        warm_result = warm.evaluate(spec, config)
        assert warm_cache.stats["hits"] == 1
        assert warm_result.metrics == cold_result.metrics
        assert warm_result.reward.value == cold_result.reward.value

    def test_evaluate_batch_matches_scalar(self, micro4_bundle):
        scenario = unconstrained(micro4_bundle.bounds)
        evaluator = build_evaluator(
            "database", scenario, bundle=micro4_bundle, platform=micro4_bundle.platform
        )
        records = micro4_bundle.database.records
        pairs = [
            (records[i % len(records)].spec, micro4_bundle.space.config_at(i * 7))
            for i in range(6)
        ] * 2  # duplicates exercise the dedup path
        batch = evaluator.evaluate_batch(pairs)
        reference = build_evaluator(
            "database", scenario, bundle=micro4_bundle, platform=micro4_bundle.platform
        )
        assert len(batch) == len(pairs)
        assert evaluator.num_evaluations == len(pairs)
        for (spec, config), result in zip(pairs, batch):
            assert result.reward.value == reference.evaluate(spec, config).reward.value


class TestCachedTrainerStore:
    def test_warm_run_pays_no_gpu_hours(self):
        store = EvalCache()
        first = CachedTrainer(SurrogateCifar100Trainer(), store=store, namespace="t")
        outcome = first.train_and_score(resnet_cell())
        assert first.oracle.num_trainings == 1

        second = CachedTrainer(SurrogateCifar100Trainer(), store=store, namespace="t")
        warm = second.train_and_score(resnet_cell())
        assert warm.accuracy == outcome.accuracy
        assert warm.gpu_hours == outcome.gpu_hours
        assert second.hits == 1 and second.misses == 0
        assert second.oracle.num_trainings == 0

    def test_namespaces_isolate_oracles(self):
        store = EvalCache()
        a = CachedTrainer(SurrogateCifar100Trainer(seed=1), store=store, namespace="a")
        b = CachedTrainer(SurrogateCifar100Trainer(seed=2), store=store, namespace="b")
        acc_a = a.train_and_score(resnet_cell()).accuracy
        acc_b = b.train_and_score(resnet_cell()).accuracy
        assert acc_a != acc_b
        assert b.misses == 1
