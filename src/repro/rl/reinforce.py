"""REINFORCE with an exponential-moving-average baseline.

The paper updates the policy with
``grad_theta pi_theta(s_t) * E(s_t)`` via REINFORCE and stochastic
gradient descent (Section II-A); this controller steps with Adam over
its one parameter vector.  A standard EMA baseline subtracts the
running reward mean to reduce gradient variance without changing the
expectation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rl.optim import Adam, clip_grad_norm
from repro.rl.policy import PolicyBatch, SequencePolicy

__all__ = ["ReinforceConfig", "ReinforceTrainer"]


@dataclass(frozen=True)
class ReinforceConfig:
    """Hyper-parameters of the REINFORCE update."""

    learning_rate: float = 2e-2
    baseline_momentum: float = 0.95
    entropy_beta: float = 5e-2
    grad_clip: float = 5.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.baseline_momentum < 1.0:
            raise ValueError("baseline_momentum must be in [0, 1)")
        if self.entropy_beta < 0:
            raise ValueError("entropy_beta must be non-negative")
        if self.grad_clip < 0:
            raise ValueError(
                f"grad_clip must be >= 0 (0 disables clipping), got {self.grad_clip}"
            )


class ReinforceTrainer:
    """Couples a :class:`SequencePolicy` with the REINFORCE update."""

    def __init__(
        self,
        policy: SequencePolicy,
        config: ReinforceConfig | None = None,
    ) -> None:
        self.policy = policy
        self.config = config or ReinforceConfig()
        self.optimizer = Adam(policy.theta.size, lr=self.config.learning_rate)
        self.baseline: float | None = None
        self.num_updates = 0

    def state_dict(self) -> dict:
        """Resumable snapshot: weights and Adam moments, per parameter."""
        return {
            "policy": self.policy.state_dict(),
            "optimizer": self.optimizer.state_dict(self.policy.views),
            "baseline": self.baseline,
            "num_updates": self.num_updates,
        }

    def load_state_dict(self, state: dict) -> None:
        self.policy.load_state_dict(state["policy"])
        self.optimizer.load_state_dict(state["optimizer"], self.policy.pack)
        baseline = state["baseline"]
        self.baseline = None if baseline is None else float(baseline)
        self.num_updates = int(state["num_updates"])

    def sample_batch(self, rng: np.random.Generator, n: int) -> PolicyBatch:
        """Draw ``n`` rollouts from the current policy in one pass."""
        return self.policy.sample_batch(rng, n)

    def update_batch(self, batch: PolicyBatch, rewards) -> np.ndarray:
        """One policy-gradient step from a rollout batch.

        Mini-batch REINFORCE: per-rollout advantages are taken against
        the running EMA baseline (updated rollout by rollout, in order),
        the gradient is the mean over rollouts, its norm is clipped to
        ``grad_clip``, and Adam steps :attr:`SequencePolicy.theta`
        once.  Returns the per-rollout advantages.
        """
        rewards = [float(r) for r in rewards]
        if len(rewards) != len(batch):
            raise ValueError(f"expected {len(batch)} rewards, got {len(rewards)}")
        advantages = np.empty(len(rewards))
        for i, reward in enumerate(rewards):
            if self.baseline is None:
                self.baseline = reward
            advantages[i] = reward - self.baseline
            self.baseline = (
                self.config.baseline_momentum * self.baseline
                + (1.0 - self.config.baseline_momentum) * reward
            )
        grad = self.policy.backward_batch(
            batch, advantages, entropy_beta=self.config.entropy_beta
        )
        clip_grad_norm(grad, self.policy.views(grad).values(), self.config.grad_clip)
        self.policy.theta += self.optimizer.step(grad)
        self.num_updates += 1
        return advantages
