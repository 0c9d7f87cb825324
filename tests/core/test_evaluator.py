"""Tests for the codesign evaluator E(s)."""

import numpy as np
import pytest

from repro.accelerator.config import AcceleratorConfig
from repro.core.evaluator import CodesignEvaluator
from repro.core.reward import MetricBounds, RewardConfig
from repro.core.scenarios import unconstrained
from repro.nasbench.database import CellDatabase, enumerate_unique_cells, sample_unique_cells
from repro.nasbench.known_cells import resnet_cell
from repro.nasbench.model_spec import ModelSpec
from repro.nasbench.ops import CONV3X3, INPUT, OUTPUT
from repro.nasbench.surrogate import Cifar10Surrogate


@pytest.fixture(scope="module")
def db():
    return CellDatabase.from_specs(enumerate_unique_cells(4))


@pytest.fixture
def db_evaluator(db):
    return CodesignEvaluator.from_database(db, unconstrained())


class TestEvaluation:
    def test_valid_pair(self, db_evaluator, default_config):
        result = db_evaluator.evaluate(resnet_cell(), default_config)
        assert result.valid and result.feasible
        assert result.metrics.accuracy > 85
        assert result.metrics.latency_s > 0

    def test_invalid_spec_punished(self, db_evaluator, default_config):
        bad = ModelSpec(np.zeros((3, 3), dtype=int), (INPUT, CONV3X3, OUTPUT))
        result = db_evaluator.evaluate(bad, default_config)
        assert not result.valid
        assert result.metrics is None
        assert result.reward.value < 0

    def test_outside_database_punished(self, db_evaluator, default_config):
        outside = sample_unique_cells(1, seed=0)[0]  # 6-7 vertices
        result = db_evaluator.evaluate(outside, default_config)
        assert not result.valid
        assert result.reward.value < 0

    def test_surrogate_evaluator_accepts_any_valid(self, default_config):
        evaluator = CodesignEvaluator.from_surrogate(unconstrained())
        outside = sample_unique_cells(1, seed=0)[0]
        result = evaluator.evaluate(outside, default_config)
        assert result.valid

    def test_accuracy_matches_database(self, db, db_evaluator, default_config):
        record = db.records[0]
        result = db_evaluator.evaluate(record.spec, default_config)
        assert result.metrics.accuracy == record.validation_accuracy


class TestCaching:
    def test_latency_cached(self, db_evaluator, default_config):
        spec = resnet_cell()
        first = db_evaluator.evaluate(spec, default_config).metrics.latency_s
        assert len(db_evaluator._latency_cache) == 1
        again = db_evaluator.evaluate(spec, default_config).metrics.latency_s
        assert again == first
        assert len(db_evaluator._latency_cache) == 1

    def test_evaluation_counter(self, db_evaluator, default_config):
        db_evaluator.evaluate(resnet_cell(), default_config)
        db_evaluator.evaluate(resnet_cell(), default_config)
        assert db_evaluator.num_evaluations == 2

    def test_with_reward_shares_caches(self, db_evaluator, default_config):
        db_evaluator.evaluate(resnet_cell(), default_config)
        clone = db_evaluator.with_reward(
            RewardConfig(weights=(0, 0, 1), bounds=MetricBounds())
        )
        assert clone._latency_cache is db_evaluator._latency_cache
        result = clone.evaluate(resnet_cell(), default_config)
        assert result.valid

    def test_with_reward_changes_reward_only(self, db_evaluator, default_config):
        base = db_evaluator.evaluate(resnet_cell(), default_config)
        clone = db_evaluator.with_reward(
            RewardConfig(weights=(0, 0, 1), bounds=db_evaluator.reward_fn.config.bounds)
        )
        other = clone.evaluate(resnet_cell(), default_config)
        assert other.metrics.latency_s == base.metrics.latency_s
        assert other.reward.value != base.reward.value


class TestLatencyTable:
    def test_fast_path_matches_fallback(self, micro4_bundle):
        bundle = micro4_bundle
        scenario = unconstrained(bundle.bounds)
        fast = CodesignEvaluator.from_database(bundle.database, scenario)
        fast.attach_latency_table(bundle.latency_ms, bundle.row_of_hash(), bundle.space)
        slow = CodesignEvaluator.from_database(bundle.database, scenario)
        spec = bundle.database.records[3].spec
        gen = np.random.default_rng(0)
        for i in map(int, gen.integers(0, bundle.space.size, 5)):
            config = bundle.space.config_at(i)
            assert fast.evaluate(spec, config).metrics.latency_s == pytest.approx(
                slow.evaluate(spec, config).metrics.latency_s, rel=1e-6
            )

    def test_unknown_cell_falls_back(self, micro4_bundle, default_config):
        bundle = micro4_bundle
        evaluator = CodesignEvaluator.from_surrogate(unconstrained(bundle.bounds))
        evaluator.attach_latency_table(
            bundle.latency_ms, bundle.row_of_hash(), bundle.space
        )
        outside = sample_unique_cells(1, seed=1)[0]
        assert evaluator.evaluate(outside, default_config).metrics.latency_s > 0


def _bits(result) -> tuple:
    """Bit-exact identity of one result (floats as hex strings)."""
    m, r = result.metrics, result.reward
    metrics = (
        None
        if m is None
        else tuple(float(v).hex() for v in (m.accuracy, m.latency_s, m.area_mm2))
    )
    violations = tuple(sorted((k, float(v).hex()) for k, v in r.violations.items()))
    return metrics, float(r.value).hex(), r.feasible, r.valid, violations


#: The evaluators of the path-equivalence matrix.
MATRIX_EVALUATORS = (
    "database-table",
    "database-scaled",
    "surrogate-embedded",
    "transformer-charm",
)


def _matrix_evaluator(kind: str, bundle) -> CodesignEvaluator:
    """A fresh evaluator of one matrix kind (nothing shared with others)."""
    from repro.core.evaluator import build_evaluator
    from repro.core.scenarios import two_constraints
    from repro.hw import build_platform
    from repro.workloads import get_workload

    if kind == "database-table":
        return build_evaluator(
            "database", two_constraints(bundle.bounds), bundle=bundle
        )
    if kind == "database-scaled":
        evaluator = build_evaluator(
            "database", two_constraints(bundle.bounds), bundle=bundle,
            platform=build_platform("dac2020-scaled", {"clock_mhz": 300.0}),
        )
        assert evaluator._latency_table is None
        return evaluator
    if kind == "surrogate-embedded":
        return build_evaluator(
            "surrogate", two_constraints(),
            platform=build_platform("embedded-lite"),
        )
    evaluator = build_evaluator(
        "transformer-analytic", unconstrained(),
        platform=build_platform("charm-u50"),
    )
    evaluator.compile_fn = get_workload("transformer").compile
    return evaluator


def _matrix_pairs(kind: str, bundle) -> list:
    """Seeded random pairs plus a cells x configs block of revisits."""
    from repro.core.search_space import JointSearchSpace
    from repro.workloads import get_workload

    platform = _matrix_evaluator(kind, bundle).platform
    workload = "transformer" if kind == "transformer-charm" else "cnn-cell"
    space = JointSearchSpace(
        cell_encoding=get_workload(workload).encoding(
            bundle if kind.startswith("database") else None
        ),
        accelerator_space=platform.config_space(),
    )
    rng = np.random.default_rng(0)
    pairs = [space.decode(space.random_actions(rng)) for _ in range(40)]
    cells = [spec for spec, _ in pairs if spec.valid][:4]
    configs = [config for _, config in pairs if platform.config_valid(config)][:4]
    return pairs + [(spec, config) for spec in cells for config in configs]


@pytest.fixture(scope="module")
def matrix_reference(micro4_bundle):
    """kind -> (pairs, bits of the first cold batch)."""
    out = {}
    for kind in MATRIX_EVALUATORS:
        pairs = _matrix_pairs(kind, micro4_bundle)
        batch = _matrix_evaluator(kind, micro4_bundle).evaluate_batch(pairs)
        out[kind] = (pairs, [_bits(result) for result in batch])
    return out


class TestPathEquivalence:
    """Every call shape and cache state gives the first cold batch's bits."""

    @pytest.mark.parametrize(
        "shape", ["batch", "pointwise", "reversed-dupes", "second-pass"]
    )
    @pytest.mark.parametrize("cache", ["none", "cold", "warm"])
    @pytest.mark.parametrize("kind", MATRIX_EVALUATORS)
    def test_matches_first_cold_batch(
        self, micro4_bundle, matrix_reference, tmp_path, kind, cache, shape
    ):
        from repro.parallel import EvalCache

        pairs, expected = matrix_reference[kind]
        path = tmp_path / "evals.sqlite"
        evaluator = _matrix_evaluator(kind, micro4_bundle)
        if cache == "warm":
            earlier = _matrix_evaluator(kind, micro4_bundle)
            earlier.attach_eval_cache(EvalCache(path), scenario=kind)
            earlier.evaluate_batch(pairs)
            earlier.eval_cache.close()
        if cache != "none":
            evaluator.attach_eval_cache(EvalCache(path), scenario=kind)
        if shape == "batch":
            results = evaluator.evaluate_batch(pairs)
        elif shape == "pointwise":
            results = [evaluator.evaluate(spec, config) for spec, config in pairs]
        elif shape == "reversed-dupes":
            results = evaluator.evaluate_batch(pairs[::-1] + pairs[:10])
            expected = expected[::-1] + expected[:10]
        else:
            evaluator.evaluate_batch(pairs)
            results = evaluator.evaluate_batch(pairs)
        assert [_bits(result) for result in results] == expected
        if cache == "warm":
            assert evaluator.eval_cache.misses == 0


class TestBatchBookkeeping:
    def test_duplicates_share_results_and_count(self, micro4_bundle):
        from repro.core.evaluator import build_evaluator

        ev = build_evaluator(
            "database",
            unconstrained(micro4_bundle.bounds),
            bundle=micro4_bundle,
            platform=micro4_bundle.platform,
        )
        pairs = _matrix_pairs("database-table", micro4_bundle)[:10]
        results = ev.evaluate_batch(pairs + pairs)
        assert ev.num_evaluations == 20
        for a, b in zip(results[:10], results[10:]):
            if a.spec.valid:
                assert a is b  # one computation, shared result

    def test_evaluate_is_a_batch_of_one(
        self, db_evaluator, default_config, monkeypatch
    ):
        batches = []
        original = CodesignEvaluator.evaluate_batch

        def spy(self, pairs):
            batches.append(list(pairs))
            return original(self, pairs)

        monkeypatch.setattr(CodesignEvaluator, "evaluate_batch", spy)
        spec = resnet_cell()
        assert db_evaluator.evaluate(spec, default_config).valid
        assert batches == [[(spec, default_config)]]


def _twin(platform):
    """Another platform over the same space: reference latency, 2x area."""
    from repro.hw import Dac2020Platform

    return Dac2020Platform(
        name="twin", params={}, space=platform.config_space(), area_scale=2.0
    )


class TestCloneContract:
    """What ``with_reward`` and ``with_platform`` clones share."""

    HW_CALLS = ("area_mm2", "network_latency_s", "config_valid")

    @staticmethod
    def _count(monkeypatch, platform, names=HW_CALLS):
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(platform, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(platform, name, counted)
        return calls

    @pytest.fixture
    def pairs(self, micro4_bundle):
        return _matrix_pairs("surrogate-embedded", micro4_bundle)

    @pytest.fixture
    def parent(self, micro4_bundle, tmp_path):
        from repro.parallel import EvalCache

        evaluator = _matrix_evaluator("surrogate-embedded", micro4_bundle)
        return evaluator.attach_eval_cache(
            EvalCache(tmp_path / "evals.sqlite"), scenario="parent"
        )

    def test_with_reward_shares_every_memo(self, micro4_bundle, tmp_path):
        from repro.parallel import EvalCache

        parent = _matrix_evaluator("database-table", micro4_bundle)
        parent.attach_eval_cache(EvalCache(tmp_path / "evals.sqlite"), scenario="db")
        clone = parent.with_reward(unconstrained())
        assert parent._latency_table is not None
        for name in (
            "_accuracy_cache", "_content_hash_memo", "_area_cache",
            "_latency_cache", "_config_index_memo", "_latency_table",
            "eval_cache", "platform", "source_info", "compile_fn",
        ):
            assert getattr(clone, name) is getattr(parent, name), name
        assert clone.cache_scenario == parent.cache_scenario
        assert clone.reward_fn.config == unconstrained()
        assert parent.reward_fn.config != clone.reward_fn.config

    def test_with_reward_revisit_makes_no_platform_call(
        self, monkeypatch, parent, pairs
    ):
        parent.evaluate_batch(pairs)
        clone = parent.with_reward(unconstrained())
        calls = self._count(monkeypatch, clone.platform)
        results = clone.evaluate_batch(pairs)
        assert calls == dict.fromkeys(calls, 0)
        assert any(result.feasible for result in results)
        assert clone.num_evaluations == len(pairs)

    def test_with_reward_without_eval_cache_reuses_hw_memos(
        self, micro4_bundle, monkeypatch, pairs
    ):
        parent = _matrix_evaluator("surrogate-embedded", micro4_bundle)
        parent.evaluate_batch(pairs)
        clone = parent.with_reward(unconstrained())
        calls = self._count(
            monkeypatch, clone.platform, ("area_mm2", "network_latency_s")
        )
        clone.evaluate_batch(pairs)
        assert calls == {"area_mm2": 0, "network_latency_s": 0}

    def test_with_platform_shares_only_cell_memos(self, parent, pairs):
        parent.evaluate_batch(pairs)
        twin = _twin(parent.platform)
        clone = parent.with_platform(twin)
        assert clone._accuracy_cache is parent._accuracy_cache
        assert clone._content_hash_memo is parent._content_hash_memo
        for name in ("_area_cache", "_latency_cache", "_config_index_memo"):
            assert getattr(clone, name) is not getattr(parent, name), name
            assert len(getattr(clone, name)) == 0, name
        assert clone.platform is twin
        assert clone._latency_table is None
        assert clone.eval_cache is None
        assert parent.with_platform(twin)._area_cache is not clone._area_cache

    def test_with_platform_never_reads_or_writes_parent_hw_state(
        self, micro4_bundle, monkeypatch, parent, pairs
    ):
        def hw_state():
            return (
                len(parent._area_cache),
                len(parent._latency_cache),
                len(parent.eval_cache),
            )

        parent.evaluate_batch(pairs)
        parent.eval_cache.flush()
        before = hw_state()
        accuracy_calls = []
        accuracy_fn = parent.accuracy_fn
        monkeypatch.setattr(
            parent, "accuracy_fn",
            lambda spec: accuracy_calls.append(spec) or accuracy_fn(spec),
        )
        clone = parent.with_platform(_twin(parent.platform))
        fresh = _matrix_evaluator("surrogate-embedded", micro4_bundle)
        fresh = fresh.with_platform(_twin(fresh.platform))
        # The twin's metrics come from the twin, not from the parent's
        # memos or eval cache, and no cell accuracy is recomputed.
        assert [_bits(r) for r in clone.evaluate_batch(pairs)] == [
            _bits(r) for r in fresh.evaluate_batch(pairs)
        ]
        assert accuracy_calls == []
        assert parent.eval_cache.stats["pending"] == 0
        assert hw_state() == before


class TestAccuracySourceRegistry:
    def test_builtin_sources_registered(self):
        from repro.core.evaluator import list_accuracy_sources

        assert set(list_accuracy_sources()) >= {
            "database", "surrogate", "cifar100-trainer",
        }

    def test_database_requires_bundle(self):
        from repro.core.evaluator import AccuracySourceError, build_evaluator

        with pytest.raises(AccuracySourceError, match="bundle"):
            build_evaluator("database", unconstrained())

    def test_unknown_source_and_params_actionable(self):
        from repro.core.evaluator import AccuracySourceError, build_evaluator

        with pytest.raises(AccuracySourceError, match="registered:"):
            build_evaluator("oracle", unconstrained())
        with pytest.raises(AccuracySourceError, match="noise"):
            build_evaluator("surrogate", unconstrained(), {"noise": 1.0})

    def test_surrogate_params_reach_surrogate(self):
        from repro.core.evaluator import build_evaluator

        evaluator = build_evaluator(
            "surrogate", unconstrained(), {"seed": 7, "noise_std": 0.0}
        )
        surrogate = evaluator.source_info["surrogate"]
        assert (surrogate.seed, surrogate.noise_std) == (7, 0.0)

    def test_skeleton_param_pins_namespace(self):
        from repro.core.evaluator import accuracy_source_namespace

        for source in ("database", "surrogate", "cifar100-trainer"):
            plain = accuracy_source_namespace(source)
            stacked = accuracy_source_namespace(
                source, {"skeleton": {"num_stacks": 2}}
            )
            assert plain != stacked, source

    def test_default_namespaces_pinned(self):
        # Shared eval-cache rows are keyed by these strings; a change
        # would orphan every cached row and ledger pin.
        from repro.core.evaluator import accuracy_source_namespace

        assert {
            source: accuracy_source_namespace(source)
            for source in (
                "database", "surrogate", "cifar100-trainer", "transformer-analytic",
            )
        } == {
            "database": "study/database",
            "surrogate": "study/surrogate/seed101/noise0.25/clip80-95.1",
            "cifar100-trainer": (
                "train/cifar100/seed100/noise0.3/gpu0.45+0.45/clip55-76.5"
            ),
            "transformer-analytic": "study/transformer-analytic",
        }

    @pytest.mark.parametrize(
        "source, params",
        [
            ("surrogate", {"seed": 7}),
            ("surrogate", {"noise_std": 0.0}),
            ("surrogate", {"floor": 0, "ceiling": 100}),
            ("cifar100-trainer", {"seed": 7}),
            ("cifar100-trainer", {"noise_std": 0.0}),
            ("cifar100-trainer", {"gpu_hours_base": 0.0}),
            ("cifar100-trainer", {"gpu_hours_per_gmac": 0.0}),
            ("cifar100-trainer", {"floor": 76.5}),
        ],
    )
    def test_boundary_params_accepted_and_pin_the_namespace(self, source, params):
        # The spec-time check refuses no value the builder accepts, and
        # each outcome-affecting param keys cache rows of its own.
        from repro.core.evaluator import accuracy_source_namespace

        assert accuracy_source_namespace(source, params) != (
            accuracy_source_namespace(source)
        )

    def test_bad_skeleton_field_rejected(self):
        from repro.core.evaluator import AccuracySourceError, build_evaluator

        with pytest.raises(AccuracySourceError, match="skeleton"):
            build_evaluator(
                "surrogate", unconstrained(), {"skeleton": {"depth": 3}}
            )

    def test_with_reward_carries_source_info(self):
        from repro.core.evaluator import build_evaluator

        evaluator = build_evaluator("surrogate", unconstrained())
        clone = evaluator.with_reward(unconstrained())
        assert clone.source_info is evaluator.source_info
