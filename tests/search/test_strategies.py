"""Tests for the search strategies on the enumerated micro space."""

import numpy as np
import pytest

from repro.core.evaluator import build_evaluator
from repro.core.scenarios import one_constraint, unconstrained
from repro.core.search_space import JointSearchSpace
from repro.search.combined import CombinedSearch
from repro.search.phase import PhaseSearch
from repro.search.random_search import RandomSearch
from repro.search.separate import SeparateSearch


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


class TestCombined:
    def test_runs_and_records(self, space, evaluator):
        result = CombinedSearch(space, seed=0).run(evaluator, 60)
        assert len(result.archive) == 60
        assert result.strategy == "combined"
        assert result.scenario == "unconstrained"

    def test_deterministic_given_seed(self, space, micro4_bundle):
        a = CombinedSearch(space, seed=5).run(
            unconstrained_evaluator(micro4_bundle), 40
        )
        b = CombinedSearch(space, seed=5).run(
            unconstrained_evaluator(micro4_bundle), 40
        )
        assert np.array_equal(a.reward_trace(), b.reward_trace())

    def test_different_seeds_differ(self, space, micro4_bundle):
        a = CombinedSearch(space, seed=1).run(
            unconstrained_evaluator(micro4_bundle), 40
        )
        b = CombinedSearch(space, seed=2).run(
            unconstrained_evaluator(micro4_bundle), 40
        )
        assert not np.array_equal(a.reward_trace(), b.reward_trace())

    def test_best_is_feasible_max(self, space, evaluator):
        result = CombinedSearch(space, seed=0).run(evaluator, 80)
        best = result.best
        assert best is not None
        feasible_rewards = [e.reward for e in result.archive.feasible_entries()]
        assert best.reward == max(feasible_rewards)


class TestPhase:
    def test_phases_alternate(self, space, evaluator):
        strategy = PhaseSearch(space, seed=0, cnn_phase_steps=20, hw_phase_steps=5)
        result = strategy.run(evaluator, 60)
        phases = [e.phase for e in result.archive.entries]
        assert any(p.startswith("cnn") for p in phases)
        assert any(p.startswith("hw") for p in phases)

    def test_hw_frozen_during_cnn_phase(self, space, evaluator):
        strategy = PhaseSearch(space, seed=0, cnn_phase_steps=15, hw_phase_steps=5)
        result = strategy.run(evaluator, 15)
        configs = {
            tuple(e.config.to_dict().values())
            for e in result.archive.entries
            if e.phase.startswith("cnn")
        }
        assert len(configs) == 1

    def test_cnn_frozen_during_hw_phase(self, space, evaluator):
        strategy = PhaseSearch(space, seed=0, cnn_phase_steps=10, hw_phase_steps=10)
        result = strategy.run(evaluator, 20)
        hw_entries = [e for e in result.archive.entries if e.phase.startswith("hw")]
        specs = {e.spec.spec_hash() for e in hw_entries if e.valid}
        assert len(specs) <= 1

    def test_rejects_bad_phase_lengths(self, space):
        with pytest.raises(ValueError):
            PhaseSearch(space, cnn_phase_steps=0)


class TestSeparate:
    def test_stage_split(self, space, evaluator):
        strategy = SeparateSearch(space, seed=0, cnn_fraction=0.75)
        result = strategy.run(evaluator, 40)
        cnn = [e for e in result.archive.entries if e.phase == "cnn-only"]
        hw = [e for e in result.archive.entries if e.phase == "hw-only"]
        assert len(cnn) == 30
        assert len(hw) == 10

    def test_stage2_spec_is_stage1_best(self, space, evaluator):
        strategy = SeparateSearch(space, seed=0)
        result = strategy.run(evaluator, 40)
        best_spec = result.extras["stage1_best"]
        hw_entries = [e for e in result.archive.entries if e.phase == "hw-only"]
        assert all(e.spec.spec_hash() == best_spec.spec_hash() for e in hw_entries)

    def test_fraction_validation(self, space):
        with pytest.raises(ValueError):
            SeparateSearch(space, cnn_fraction=1.5)


class TestRandom:
    def test_runs(self, space, evaluator):
        result = RandomSearch(space, seed=0).run(evaluator, 50)
        assert len(result.archive) == 50
        assert result.strategy == "random"

    def test_explores_diverse_pairs(self, space, evaluator):
        result = RandomSearch(space, seed=0).run(evaluator, 50)
        assert result.archive.distinct_pairs() > 10


class TestControllerBeatsRandomEventually:
    def test_combined_at_least_matches_random(self, space, micro4_bundle):
        """RL should find an equal-or-better best point than random."""
        rl = CombinedSearch(space, seed=11).run(
            unconstrained_evaluator(micro4_bundle), 300
        )
        rnd = RandomSearch(space, seed=11).run(
            unconstrained_evaluator(micro4_bundle), 300
        )
        assert rl.best.reward >= rnd.best.reward - 0.01
