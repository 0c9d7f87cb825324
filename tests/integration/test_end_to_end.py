"""Integration tests across the whole stack."""

import numpy as np
import pytest

from repro.core.evaluator import CodesignEvaluator, build_evaluator
from repro.core.scenarios import one_constraint, unconstrained
from repro.core.search_space import JointSearchSpace
from repro.nasbench.skeleton import CIFAR10_SKELETON
from repro.search.combined import CombinedSearch
from repro.training.cache import CachedTrainer
from repro.training.numpy_trainer import TOY_SKELETON, NumpyTrainerOracle


class TestSearchVsEnumeration:
    """The search must be consistent with the enumerated ground truth."""

    def test_search_metrics_match_bundle_matrix(self, micro4_bundle):
        bundle = micro4_bundle
        scenario = unconstrained(bundle.bounds)
        space = JointSearchSpace(cell_encoding=bundle.cell_encoding)
        evaluator = build_evaluator(
            "database", scenario, bundle=bundle, platform=bundle.platform
        )
        result = CombinedSearch(space, seed=0).run(evaluator, 50)
        rows = bundle.row_of_hash()
        for entry in result.archive.feasible_entries()[:20]:
            row = rows[entry.spec.spec_hash()]
            col = bundle.space.index_of(entry.config)
            assert entry.metrics.latency_ms == pytest.approx(
                bundle.latency_ms[row, col], rel=1e-9
            )
            assert entry.metrics.accuracy == pytest.approx(bundle.accuracy[row])

    def test_search_cannot_beat_pareto_front(self, micro4_bundle):
        """No discovered point may dominate the enumerated frontier."""
        bundle = micro4_bundle
        front = bundle.front
        scenario = one_constraint(bundle.bounds)
        space = JointSearchSpace(cell_encoding=bundle.cell_encoding)
        evaluator = build_evaluator(
            "database", scenario, bundle=bundle, platform=bundle.platform
        )
        result = CombinedSearch(space, seed=3).run(evaluator, 200)
        best = result.best
        if best is None:
            pytest.skip("no feasible point found in this tiny run")
        m = best.metrics
        dominates_front = (
            (m.accuracy > front.accuracy)
            & (m.latency_ms < front.latency_ms)
            & (m.area_mm2 < front.area_mm2)
        )
        assert not dominates_front.any()

    def test_search_reaches_near_reference_reward(self, micro4_bundle):
        """Best found reward approaches the best enumerated reward."""
        from repro.core.reward import RewardFunction

        bundle = micro4_bundle
        scenario = unconstrained(bundle.bounds)
        fn = RewardFunction(scenario)
        rewards = fn.reward_array(
            np.broadcast_to(bundle.area_mm2, bundle.latency_ms.shape),
            bundle.latency_ms,
            np.broadcast_to(bundle.accuracy[:, None], bundle.latency_ms.shape),
        )
        best_possible = np.nanmax(rewards)
        space = JointSearchSpace(cell_encoding=bundle.cell_encoding)
        evaluator = build_evaluator(
            "database", scenario, bundle=bundle, platform=bundle.platform
        )
        result = CombinedSearch(space, seed=5).run(evaluator, 400)
        assert result.best.reward >= best_possible - 0.05


class TestRealTrainerInTheLoop:
    def test_codesign_search_over_numpy_trainer(self):
        """The full paper loop with *real* training as the oracle."""
        oracle = CachedTrainer(
            NumpyTrainerOracle(
                seed=0,
                n_train=96,
                n_test=32,
            )
        )
        from repro.core.reward import MetricBounds

        bounds = MetricBounds(accuracy=(20.0, 100.0))
        evaluator = CodesignEvaluator(
            accuracy_fn=oracle.accuracy_fn,
            reward_config=unconstrained(bounds),
            skeleton=TOY_SKELETON,
        )
        space = JointSearchSpace()
        result = CombinedSearch(space, seed=2).run(evaluator, 6)
        assert len(result.archive) == 6
        assert oracle.unique_cells_trained >= 1
        feasible = result.archive.feasible_entries()
        if feasible:
            assert all(e.metrics.accuracy > 0 for e in feasible)


class TestDeterminism:
    def test_full_pipeline_reproducible(self, micro4_bundle):
        bundle = micro4_bundle
        scenario = unconstrained(bundle.bounds)
        space = JointSearchSpace(cell_encoding=bundle.cell_encoding)

        def run():
            evaluator = build_evaluator(
                "database", scenario, bundle=bundle, platform=bundle.platform
            )
            return CombinedSearch(space, seed=9).run(evaluator, 40).reward_trace()

        assert np.array_equal(run(), run())
