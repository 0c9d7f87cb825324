"""Tests for the REINFORCE trainer."""

import numpy as np
import pytest

from repro.rl.policy import SequencePolicy
from repro.rl.reinforce import ReinforceConfig, ReinforceTrainer


@pytest.fixture
def trainer():
    policy = SequencePolicy([2, 3], hidden_size=12, embedding_size=6, seed=0)
    return ReinforceTrainer(policy, ReinforceConfig(learning_rate=0.05))


def step(trainer, rng, reward):
    """One batch-of-one REINFORCE step; returns the advantage used."""
    return float(trainer.update_batch(trainer.sample_batch(rng, 1), [reward])[0])


class TestBaseline:
    def test_initialized_to_first_reward(self, trainer, rng):
        assert step(trainer, rng, 0.7) == 0.0
        assert trainer.baseline == pytest.approx(0.7)

    def test_ema_update(self, trainer, rng):
        step(trainer, rng, 1.0)
        step(trainer, rng, 0.0)
        assert trainer.baseline == pytest.approx(0.95 * 1.0 + 0.05 * 0.0)

    def test_advantage_sign(self, trainer, rng):
        step(trainer, rng, 0.5)
        assert step(trainer, rng, 1.0) > 0

    def test_update_counter(self, trainer, rng):
        step(trainer, rng, 0.1)
        step(trainer, rng, 0.1)
        assert trainer.num_updates == 2


class TestLearning:
    def test_learns_dense_bandit(self):
        policy = SequencePolicy([2, 2, 3, 3], hidden_size=24, embedding_size=12, seed=1)
        trainer = ReinforceTrainer(
            policy, ReinforceConfig(learning_rate=0.05, entropy_beta=0.01)
        )
        gen = np.random.default_rng(42)
        for _ in range(800):
            batch = trainer.sample_batch(gen, 1)
            trainer.update_batch(batch, [float(np.mean(batch.actions[0] == 0))])
        final = trainer.sample_batch(gen, 50).actions == 0
        assert final.mean() > 0.8  # random policy scores ~0.42

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReinforceConfig(baseline_momentum=1.5)
        with pytest.raises(ValueError):
            ReinforceConfig(entropy_beta=-0.1)
        with pytest.raises(ValueError, match="grad_clip"):
            ReinforceConfig(grad_clip=-1.0)
        assert ReinforceConfig(grad_clip=0.0).grad_clip == 0.0

    @pytest.mark.parametrize(
        "field", ["learning_rate", "baseline_momentum", "entropy_beta", "grad_clip"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            ReinforceConfig(**{field: value})


class TestUpdateBatch:
    def _fresh(self, seed=0):
        from repro.rl.policy import SequencePolicy

        policy = SequencePolicy([3, 4, 2], hidden_size=16, embedding_size=8, seed=seed)
        return policy, ReinforceTrainer(policy)

    def test_baseline_recurrence_order_is_rollout_by_rollout(self):
        _, trainer = self._fresh()
        rng = np.random.default_rng(1)
        batch = trainer.sample_batch(rng, 3)
        advantages = trainer.update_batch(batch, [1.0, 2.0, 3.0])
        # First rollout sets the baseline; later ones see the EMA.
        assert advantages[0] == 0.0
        assert advantages[1] == pytest.approx(2.0 - 1.0)
        m = trainer.config.baseline_momentum
        b1 = m * 1.0 + (1 - m) * 2.0
        assert advantages[2] == pytest.approx(3.0 - b1)

    def test_one_optimizer_step_per_batch(self):
        _, trainer = self._fresh()
        rng = np.random.default_rng(2)
        trainer.update_batch(trainer.sample_batch(rng, 8), [0.1] * 8)
        assert trainer.num_updates == 1

    def test_reward_count_validated(self):
        _, trainer = self._fresh()
        rng = np.random.default_rng(3)
        batch = trainer.sample_batch(rng, 3)
        with pytest.raises(ValueError):
            trainer.update_batch(batch, [0.1, 0.2])

    def test_state_dict_round_trip_resumes_identically(self):
        policy, trainer = self._fresh()
        state = trainer.state_dict()
        assert state["optimizer"] == {"t": 0, "m": {}, "v": {}}
        rng = np.random.default_rng(4)
        trainer.update_batch(trainer.sample_batch(rng, 4), [0.2, 0.5, 0.1, 0.9])
        state = trainer.state_dict()
        assert set(state["optimizer"]["m"]) == set(policy.params)
        resumed_policy, resumed = self._fresh(seed=1)
        resumed.load_state_dict(state)
        batch = policy.sample_batch(np.random.default_rng(5), 3)
        trainer.update_batch(batch, [0.3, 0.4, 0.8])
        resumed.update_batch(batch, [0.3, 0.4, 0.8])
        assert np.array_equal(resumed_policy.theta, policy.theta)
        assert resumed.baseline == trainer.baseline
