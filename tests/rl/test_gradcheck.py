"""Finite-difference verification of the batched policy gradient."""

import numpy as np
import pytest

from repro.rl.gradcheck import max_relative_error, numeric_gradients, policy_loss
from repro.rl.policy import SequencePolicy


@pytest.fixture
def policy():
    return SequencePolicy([2, 2, 3, 5], hidden_size=12, embedding_size=6, seed=3)


ADVANTAGES = {1: [0.8], 4: [0.8, -1.3, 0.0, 0.4]}


class TestGradients:
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("entropy_beta", [0.0, 0.05])
    def test_backward_batch_matches_finite_differences(
        self, policy, rng, n, entropy_beta
    ):
        batch = policy.sample_batch(rng, n)
        advantages = ADVANTAGES[n]
        grad = policy.backward_batch(batch, np.array(advantages), entropy_beta)
        numeric = numeric_gradients(
            policy, batch.actions, advantages, entropy_beta, rng=rng
        )
        assert max_relative_error(policy.views(grad), numeric) < 1e-4

    def test_negative_advantage(self, policy, rng):
        batch = policy.sample_batch(rng, 1)
        grad = policy.backward_batch(batch, np.array([-1.3]))
        numeric = numeric_gradients(policy, batch.actions, [-1.3], rng=rng)
        assert max_relative_error(policy.views(grad), numeric) < 1e-4

    @pytest.mark.parametrize("n", [1, 4])
    def test_loss_value_consistent_with_sample(self, policy, rng, n):
        batch = policy.sample_batch(rng, n)
        loss = policy_loss(policy, batch.actions, [1.0] * n)
        log_probs = sum(
            np.log(p[np.arange(n), batch.actions[:, t]])
            for t, p in enumerate(batch.probs)
        )
        assert loss == pytest.approx(-log_probs.mean())

    def test_zero_advantage_no_reinforce_gradient(self, policy, rng):
        batch = policy.sample_batch(rng, 3)
        grad = policy.backward_batch(batch, np.zeros(3))
        assert np.allclose(grad, 0.0)
