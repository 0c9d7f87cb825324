"""Integration tests across the whole stack."""

import numpy as np
import pytest

from repro.core.evaluator import build_evaluator
from repro.core.scenarios import one_constraint, unconstrained
from repro.core.search_space import JointSearchSpace
from repro.search.combined import CombinedSearch


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
