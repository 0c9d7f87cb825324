"""Tests for the sequential controller policy."""

import numpy as np
import pytest

from repro.rl.gradcheck import policy_loss
from repro.rl.policy import SequencePolicy


@pytest.fixture
def policy():
    return SequencePolicy([2, 3, 4], hidden_size=16, embedding_size=8, seed=0)


class TestParams:
    def test_params_include_lstm(self, policy):
        keys = set(policy.params)
        assert {"lstm_wx", "lstm_wh", "lstm_b", "start"} <= keys
        assert "head_w0" in keys and "emb0" in keys

    def test_last_token_has_no_embedding(self, policy):
        assert "emb2" not in policy.params

    def test_params_are_views_into_theta(self, policy):
        assert policy.theta.size == sum(v.size for v in policy.params.values())
        before = policy.params["head_w0"].copy()
        policy.theta += 1.0
        assert np.array_equal(policy.params["head_w0"], before + 1.0)
        for key, view in policy.cell.params.items():
            assert view is policy.params[f"lstm_{key}"]
            assert np.shares_memory(view, policy.theta), key

    @pytest.mark.parametrize("vocab_sizes", [[5], [2, 3, 4], [3, 1, 4, 1, 2]])
    def test_views_tile_the_vector_in_order(self, vocab_sizes):
        # Every element of theta belongs to exactly one named view, in
        # theta's order: no gap, no overlap.
        policy = SequencePolicy(vocab_sizes, hidden_size=4, embedding_size=3, seed=0)
        index = np.arange(policy.theta.size, dtype=np.float64)
        views = policy.views(index)
        assert list(views) == list(policy.params)
        flat = np.concatenate([v.ravel() for v in views.values()])
        assert np.array_equal(flat, index)

    def test_state_dict_round_trip(self, policy):
        state = policy.state_dict()
        other = SequencePolicy([2, 3, 4], hidden_size=16, embedding_size=8, seed=1)
        other.load_state_dict(state)
        assert np.array_equal(other.theta, policy.theta)
        policy.theta += 1.0  # the snapshot does not alias the live weights
        assert not np.array_equal(state["start"], policy.params["start"])

    def test_missing_parameter_rejected(self, policy):
        state = policy.state_dict()
        del state["start"]
        with pytest.raises(ValueError, match="missing \\['start'\\]"):
            policy.load_state_dict(state)

    def test_unexpected_parameter_rejected(self, policy):
        state = policy.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(ValueError, match="unexpected \\['bogus'\\]"):
            policy.load_state_dict(state)

    def test_differently_shaped_checkpoint_rejected(self, policy):
        wider = SequencePolicy([2, 3, 4], hidden_size=32, embedding_size=8, seed=0)
        with pytest.raises(ValueError, match="'lstm_wx' has shape \\(8, 64\\)"):
            policy.load_state_dict(wider.state_dict())

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            SequencePolicy([])

    @pytest.mark.parametrize("field", ["hidden_size", "embedding_size"])
    def test_nonpositive_sizes_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            SequencePolicy([2, 3], **{field: 0})


class TestSampleBatch:
    def test_batch_shapes_and_vocab_ranges(self, policy):
        rng = np.random.default_rng(0)
        batch = policy.sample_batch(rng, 9)
        assert batch.actions.shape == (9, 3)
        for t, vocab in enumerate(policy.vocab_sizes):
            assert batch.probs[t].shape == (9, vocab)
            assert np.all(batch.probs[t] > 0)
            assert np.allclose(batch.probs[t].sum(axis=1), 1.0)
            acts = batch.actions[:, t]
            assert np.all((0 <= acts) & (acts < vocab))

    @pytest.mark.parametrize("n", [1, 4])
    def test_deterministic_given_rng(self, policy, n):
        a = policy.sample_batch(np.random.default_rng(5), n)
        b = policy.sample_batch(np.random.default_rng(5), n)
        assert np.array_equal(a.actions, b.actions)

    @pytest.mark.parametrize("n", [1, 6])
    def test_probs_match_rollout_by_rollout_forward(self, policy, n):
        batch = policy.sample_batch(np.random.default_rng(1), n)
        for i in range(n):
            log_prob = sum(
                np.log(batch.probs[t][i, a]) for t, a in enumerate(batch.actions[i])
            )
            assert -policy_loss(policy, [batch.actions_list(i)], [1.0]) == pytest.approx(
                float(log_prob)
            )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_same_token_at_every_batch_size(self, n):
        """A uniform on a CDF boundary draws as ``Generator.choice`` does."""

        class HalfUniforms:
            """Every uniform is 0.5; ``choice`` is numpy's algorithm."""

            def random(self, size=None):
                return 0.5 if size is None else np.full(size, 0.5)

            def choice(self, a, p):
                cdf = np.cumsum(p)
                cdf /= cdf[-1]
                return int(cdf.searchsorted(self.random(), side="right"))

        policy = SequencePolicy([2, 2, 2], hidden_size=4, embedding_size=3, seed=0)
        policy.theta[:] = 0.0  # every token: p = [0.5, 0.5]
        batch = policy.sample_batch(HalfUniforms(), n)
        assert all(np.array_equal(p, np.full((n, 2), 0.5)) for p in batch.probs)
        assert np.array_equal(batch.actions, np.ones((n, 3), dtype=np.int64))

    def test_rejects_nonpositive_batch(self, policy):
        with pytest.raises(ValueError):
            policy.sample_batch(np.random.default_rng(0), 0)

    def test_batch_sampling_follows_policy_distribution(self, policy):
        """Vectorized inverse-CDF draws hit every probable action."""
        rng = np.random.default_rng(2)
        batch = policy.sample_batch(rng, 512)
        for t, vocab in enumerate(policy.vocab_sizes):
            counts = np.bincount(batch.actions[:, t], minlength=vocab)
            expected = batch.probs[t].mean(axis=0) * len(batch)
            # loose sanity: every action with >5% mass appears
            assert np.all(counts[expected > 25] > 0)


class TestBackwardBatch:
    def test_mean_gradient_property(self, policy, rng):
        """backward_batch == mean of the per-rollout gradients."""
        batch = policy.sample_batch(rng, 5)
        advantages = np.array([0.5, -0.2, 0.9, 0.0, -1.1])
        batched = policy.backward_batch(batch, advantages, entropy_beta=0.03)
        manual = sum(
            policy.backward_batch(batch.subset([i]), advantages[i: i + 1], 0.03)
            for i in range(5)
        )
        assert np.allclose(batched, manual / 5, atol=1e-12)

    def test_advantage_length_checked(self, policy, rng):
        batch = policy.sample_batch(rng, 3)
        with pytest.raises(ValueError):
            policy.backward_batch(batch, np.zeros(2))
