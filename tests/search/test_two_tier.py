"""Tests for two-tier surrogate-filtered search (repro.search.two_tier).

The contract under test: the surrogate tier only decides *which*
proposals get an exact evaluation — everything told, archived, cached
or ledgered is an exact result, bit for bit, and at
``exact_fraction=1.0`` the mode degenerates to the plain driver
exactly.
"""

import numpy as np
import pytest

from repro.core.evaluator import build_evaluator
from repro.core.scenarios import unconstrained
from repro.core.search_space import JointSearchSpace
from repro.core.study import ExecutionSpec
from repro.hw.surrogate import SurrogatePlatform, surrogate_model_for
from repro.search.base import Proposal
from repro.search.combined import CombinedSearch
from repro.search.phase import PhaseSearch
from repro.search.random_search import RandomSearch
from repro.search.separate import SeparateSearch
from repro.search.threshold_schedule import ThresholdScheduleSearch
from repro.search.two_tier import DEFAULT_EXACT_FRACTION, TwoTierFilter


@pytest.fixture
def space(micro4_bundle):
    return JointSearchSpace(cell_encoding=micro4_bundle.cell_encoding)


@pytest.fixture
def evaluator(micro4_bundle):
    return build_evaluator(
        "database",
        unconstrained(micro4_bundle.bounds),
        bundle=micro4_bundle,
        platform=micro4_bundle.platform,
    )


@pytest.fixture
def two_tier(evaluator):
    base = evaluator.platform
    model = surrogate_model_for(base, use_disk_cache=False)
    twin = SurrogatePlatform(base, model)
    return TwoTierFilter(evaluator.with_platform(twin), DEFAULT_EXACT_FRACTION)


class TestPolicyBatchSubset:
    def test_subset_slices_the_rollout_axis(self, space):
        search = CombinedSearch(space, seed=0)
        batch = search.trainer.sample_batch(np.random.default_rng(1), 5)
        sub = batch.subset([1, 3])
        assert len(sub) == 2
        assert np.array_equal(sub.actions, batch.actions[[1, 3]])
        # caches/probs are per-TOKEN lists whose arrays carry the
        # rollout batch as the leading axis — the list length must
        # survive, only the arrays shrink.
        assert len(sub.probs) == len(batch.probs)
        for t in range(len(batch.probs)):
            assert np.array_equal(sub.probs[t], batch.probs[t][[1, 3]])
            assert np.array_equal(sub.caches[t].h, batch.caches[t].h[[1, 3]])
            assert np.array_equal(sub.caches[t].h_prev, batch.caches[t].h_prev[[1, 3]])
            assert np.array_equal(sub.caches[t].c, batch.caches[t].c[[1, 3]])

    def test_identity_subset_update_matches_full_update(self, space):
        a = CombinedSearch(space, seed=0)
        b = CombinedSearch(space, seed=0)
        batch_a = a.trainer.sample_batch(np.random.default_rng(2), 4)
        batch_b = b.trainer.sample_batch(np.random.default_rng(2), 4)
        rewards = [0.1, 0.9, 0.4, 0.7]
        a.trainer.update_batch(batch_a, rewards)
        b.trainer.update_batch(batch_b.subset(range(4)), rewards)
        next_a = a.trainer.sample_batch(np.random.default_rng(3), 4)
        next_b = b.trainer.sample_batch(np.random.default_rng(3), 4)
        assert np.array_equal(next_a.actions, next_b.actions)
        for prob_a, prob_b in zip(next_a.probs, next_b.probs):
            assert np.array_equal(prob_a, prob_b)

    def test_subset_is_tellable(self, space, evaluator):
        # The shape REINFORCE strategies depend on: updating with a
        # filtered batch and matching reward count must go through.
        search = CombinedSearch(space, seed=0)
        batch = search.trainer.sample_batch(np.random.default_rng(4), 6)
        search.trainer.update_batch(batch.subset([0, 2, 5]), [0.3, 0.6, 0.9])


class _FakeReward:
    def __init__(self, value):
        self.value = value


class _FakeResult:
    def __init__(self, value):
        self.reward = _FakeReward(value)


class _FakeEvaluator:
    def __init__(self, scores):
        self.scores = list(scores)

    def evaluate_batch(self, pairs):
        assert len(pairs) == len(self.scores)
        return [_FakeResult(v) for v in self.scores]


def _proposals(n):
    return [Proposal(spec=None, config=None) for _ in range(n)]


class TestFilter:
    def test_exact_fraction_validated(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="exact_fraction"):
                TwoTierFilter(_FakeEvaluator([]), bad)

    def test_ask_size_inflates_by_fraction(self):
        assert TwoTierFilter(_FakeEvaluator([]), 0.25).ask_size(4) == 16
        assert TwoTierFilter(_FakeEvaluator([]), 1.0).ask_size(4) == 4
        assert TwoTierFilter(_FakeEvaluator([]), 0.3).ask_size(4) == 14

    def test_select_returns_topk_in_sample_order(self):
        filt = TwoTierFilter(_FakeEvaluator([1.0, 5.0, 3.0, 4.0]), 0.5)
        assert filt.select(_proposals(4), 2) == [1, 3]

    def test_select_ties_break_toward_earlier_proposal(self):
        filt = TwoTierFilter(_FakeEvaluator([2.0, 2.0, 1.0]), 0.5)
        assert filt.select(_proposals(3), 1) == [0]

    def test_short_batch_skips_scoring(self):
        class Explodes:
            def evaluate_batch(self, pairs):
                pytest.fail("k >= len(proposals) must not score")

        filt = TwoTierFilter(Explodes(), 0.25)
        assert filt.select(_proposals(3), 3) == [0, 1, 2]
        assert filt.select(_proposals(3), 5) == [0, 1, 2]


class TestTwoTierSearch:
    @pytest.mark.parametrize(
        "strategy_cls, kwargs",
        [
            (CombinedSearch, {}),
            (PhaseSearch, {"cnn_phase_steps": 8, "hw_phase_steps": 4}),
            (SeparateSearch, {}),
        ],
        ids=["combined", "phase", "separate"],
    )
    def test_archived_results_are_exact(
        self, space, evaluator, two_tier, strategy_cls, kwargs
    ):
        result = strategy_cls(space, seed=0, **kwargs).run(
            evaluator, 12, batch_size=4, two_tier=two_tier
        )
        assert len(result.archive) == 12
        # The acceptance criterion: every archived reward is the exact
        # evaluator's answer for that point, bit for bit — the
        # surrogate never leaks into told/cached/ledgered results.
        for entry in result.archive.entries:
            fresh = evaluator.evaluate(entry.spec, entry.config)
            assert entry.reward == fresh.reward.value

    def test_exact_fraction_one_matches_plain_run(self, space, evaluator, two_tier):
        two_tier.exact_fraction = 1.0
        plain = CombinedSearch(space, seed=0).run(evaluator, 10, batch_size=5)
        tiered = CombinedSearch(space, seed=0).run(
            evaluator, 10, batch_size=5, two_tier=two_tier
        )
        assert np.array_equal(
            plain.archive.reward_trace(), tiered.archive.reward_trace()
        )

    def test_two_argument_tell_runs_in_two_tier_mode(self, space, evaluator, two_tier):
        # tell(proposals, results) is the whole contract: the survivors
        # arrive as proposals, with no positions passed beside them.
        told = []

        class TwoArgumentTell(RandomSearch):
            name = "two-argument-tell"

            def tell(self, proposals, results):
                told.append(len(results))

        result = TwoArgumentTell(space, seed=0).run(
            evaluator, 8, batch_size=4, two_tier=two_tier
        )
        assert told == [4, 4]
        assert len(result.archive) == 8

    def test_threshold_schedule_refuses_two_tier(self, space, evaluator, two_tier):
        with pytest.raises(ValueError, match="two-tier"):
            ThresholdScheduleSearch(space, seed=0).run(
                evaluator, 4, two_tier=two_tier
            )


class TestExecutionSpecSurrogate:
    def test_defaults_omitted_from_dict(self):
        # Ledger-pinned pre-feature spec dicts must stay byte-identical:
        # the new fields only appear when the mode is on.
        out = ExecutionSpec().to_dict()
        assert "surrogate" not in out
        assert "exact_fraction" not in out

    def test_round_trip_when_enabled(self):
        spec = ExecutionSpec(surrogate=True, exact_fraction=0.5)
        data = spec.to_dict()
        assert data["surrogate"] is True
        assert data["exact_fraction"] == 0.5
        assert ExecutionSpec.from_dict(data) == spec

    def test_exact_fraction_validated(self):
        with pytest.raises(Exception, match="exact_fraction"):
            ExecutionSpec(surrogate=True, exact_fraction=0.0)
        with pytest.raises(Exception, match="exact_fraction"):
            ExecutionSpec(surrogate=True, exact_fraction=1.5)
