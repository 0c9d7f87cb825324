"""Finite-difference gradient checking for the numpy RL stack.

The REINFORCE loss for *fixed* action sequences is a deterministic
differentiable function of the policy parameters:

``L(theta) = mean_i -(advantage_i * log pi_theta(a_i) + beta * H_theta(a_i))``

so the analytic gradient from :meth:`SequencePolicy.backward_batch` can
be verified against central differences.  :func:`policy_loss` replays
one rollout at a time, independently of the batched code it checks.
Used by the property tests.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.rl.functional import entropy, log_softmax, softmax
from repro.rl.lstm import LSTMState
from repro.rl.policy import SequencePolicy

__all__ = ["policy_loss", "numeric_gradients", "max_relative_error"]


def policy_loss(
    policy: SequencePolicy,
    actions: Sequence[Sequence[int]],
    advantages: Sequence[float],
    entropy_beta: float = 0.0,
) -> float:
    """The mean REINFORCE loss over fixed action sequences."""
    total = 0.0
    for sequence, advantage in zip(actions, advantages):
        state = LSTMState.zeros(1, policy.hidden_size)
        log_prob = 0.0
        total_entropy = 0.0
        for t, action in enumerate(sequence):
            if t == 0:
                x = policy.params["start"]
            else:
                x = policy.params[f"emb{t - 1}"][sequence[t - 1]]
            state, _ = policy.cell.forward(x[None, :], state)
            logits = state.h @ policy.params[f"head_w{t}"] + policy.params[f"head_b{t}"]
            log_prob += float(log_softmax(logits[0])[action])
            total_entropy += float(entropy(softmax(logits[0])))
        total += -(advantage * log_prob + entropy_beta * total_entropy)
    return total / len(actions)


def numeric_gradients(
    policy: SequencePolicy,
    actions: Sequence[Sequence[int]],
    advantages: Sequence[float],
    entropy_beta: float = 0.0,
    epsilon: float = 1e-5,
    max_entries_per_param: int = 8,
    rng: np.random.Generator | None = None,
) -> dict[str, dict[tuple, float]]:
    """Central-difference gradients on a random subset of entries."""
    rng = rng or np.random.default_rng(0)
    out: dict[str, dict[tuple, float]] = {}
    for name, array in policy.params.items():
        flat_indices = rng.choice(
            array.size, size=min(max_entries_per_param, array.size), replace=False
        )
        entries: dict[tuple, float] = {}
        for flat in flat_indices:
            idx = np.unravel_index(int(flat), array.shape)
            original = array[idx]
            array[idx] = original + epsilon
            plus = policy_loss(policy, actions, advantages, entropy_beta)
            array[idx] = original - epsilon
            minus = policy_loss(policy, actions, advantages, entropy_beta)
            array[idx] = original
            entries[idx] = (plus - minus) / (2 * epsilon)
        out[name] = entries
    return out


def max_relative_error(
    analytic: dict[str, np.ndarray],
    numeric: dict[str, dict[tuple, float]],
) -> float:
    """Worst relative error over all checked entries."""
    worst = 0.0
    for name, entries in numeric.items():
        for idx, num in entries.items():
            ana = float(analytic[name][idx])
            denom = max(abs(ana), abs(num), 1e-8)
            worst = max(worst, abs(ana - num) / denom)
    return worst
