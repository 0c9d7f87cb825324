"""Tests for the regularized-evolution strategy."""

import numpy as np
import pytest

from repro.core.evaluator import build_evaluator
from repro.core.scenarios import unconstrained
from repro.core.search_space import JointSearchSpace
from repro.search.evolution import EvolutionSearch
from repro.search.random_search import RandomSearch


@pytest.fixture
def space(micro4_bundle):
    return JointSearchSpace(cell_encoding=micro4_bundle.cell_encoding)


def unconstrained_evaluator(bundle):
    """A new database evaluator under the unconstrained scenario."""
    return build_evaluator(
        "database", unconstrained(bundle.bounds), bundle=bundle, platform=bundle.platform
    )


@pytest.fixture
def evaluator(micro4_bundle):
    return unconstrained_evaluator(micro4_bundle)


class TestEvolution:
    def test_runs_and_records(self, space, evaluator):
        strategy = EvolutionSearch(space, seed=0, population_size=10, tournament_size=3)
        result = strategy.run(evaluator, 50)
        assert len(result.archive) == 50
        assert result.strategy == "evolution"

    def test_phases_tagged(self, space, evaluator):
        strategy = EvolutionSearch(space, seed=0, population_size=10, tournament_size=3)
        result = strategy.run(evaluator, 30)
        phases = [e.phase for e in result.archive.entries]
        assert phases[:10] == ["init"] * 10
        assert set(phases[10:]) == {"evolve"}

    def test_mutation_changes_exactly_k_tokens(self, space, rng):
        strategy = EvolutionSearch(space, seed=1, mutations_per_child=1)
        actions = space.random_actions(rng)
        child = strategy._mutate(actions)
        assert sum(a != b for a, b in zip(actions, child)) == 1

    def test_deterministic(self, space, micro4_bundle):
        def run():
            evaluator = unconstrained_evaluator(micro4_bundle)
            strategy = EvolutionSearch(space, seed=4, population_size=8, tournament_size=3)
            return strategy.run(evaluator, 40).reward_trace()

        assert np.array_equal(run(), run())

    def test_validation(self, space):
        with pytest.raises(ValueError):
            EvolutionSearch(space, population_size=1)
        with pytest.raises(ValueError):
            EvolutionSearch(space, population_size=5, tournament_size=6)
        with pytest.raises(ValueError):
            EvolutionSearch(space, mutations_per_child=0)

    def test_short_budget_is_all_warmup(self, space, evaluator):
        strategy = EvolutionSearch(space, seed=0, population_size=20, tournament_size=5)
        result = strategy.run(evaluator, 12)
        assert len(result.archive) == 12

    def test_competitive_with_random(self, space, micro4_bundle):
        """Evolution exploits: best-found should match or beat random."""
        evo = EvolutionSearch(space, seed=7, population_size=20, tournament_size=5).run(
            unconstrained_evaluator(micro4_bundle), 250
        )
        rnd = RandomSearch(space, seed=7).run(
            unconstrained_evaluator(micro4_bundle), 250
        )
        assert evo.best.reward >= rnd.best.reward - 0.01


class TestOneValueTokens:
    """``embedded-lite``'s joint space has two one-value tokens
    (``filter_par``, ``mem_interface_width``); mutation must pass them
    over instead of drawing from an empty choice list."""

    @pytest.fixture
    def lite(self):
        from repro.hw import build_platform

        platform = build_platform("embedded-lite")
        return platform, JointSearchSpace(accelerator_space=platform.config_space())

    def test_evolution_runs_on_embedded_lite(self, lite):
        from repro.core.evaluator import CodesignEvaluator
        from repro.core.reward import MetricBounds

        platform, space = lite
        evaluator = CodesignEvaluator.from_surrogate(
            unconstrained(MetricBounds()), platform=platform
        )
        strategy = EvolutionSearch(space, seed=0, population_size=4, tournament_size=2)
        assert len(strategy.run(evaluator, 60).archive) == 60

    def test_mutation_changes_exactly_one_mutable_token(self, lite, rng):
        _, space = lite
        assert 1 in space.vocab_sizes
        strategy = EvolutionSearch(space, seed=3)
        for _ in range(200):
            actions = space.random_actions(rng)
            child = strategy._mutate(actions)
            assert sum(a != b for a, b in zip(actions, child)) == 1

    def test_space_without_a_mutable_token_refused(self):
        class Frozen:
            vocab_sizes = [1, 1]

        with pytest.raises(ValueError, match="mutate"):
            EvolutionSearch(Frozen())
