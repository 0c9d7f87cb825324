"""The controller keeps its bits: byte equality with a frozen reference.

``reference_controller.py`` holds the controller's arithmetic as it
stood before its hot path was rewritten.  Each case builds one policy
twice from one seed, samples both with one seed, rewards both alike and
updates both, then demands ``tobytes()`` equality of the actions, every
token's probabilities, ``theta``, both Adam moments and the baseline
after every update.  The cases cover the search spaces' token layouts
(16, 21 and 34 tokens), a one-token policy and a one-value token, batch
sizes 1, 2, 3 and 16, the entropy term on and off, clipping off, loose
and binding at every step, and updates on a subset of the sampled
rollouts as the two-tier screen makes them.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.search_space import JointSearchSpace
from repro.nasbench.encoding import CellEncoding
from repro.rl.policy import SequencePolicy
from repro.rl.reinforce import ReinforceConfig, ReinforceTrainer


def _load_reference():
    path = Path(__file__).resolve().parent / "reference_controller.py"
    spec = importlib.util.spec_from_file_location("reference_controller", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


reference = _load_reference()

LAYOUTS = {
    "micro4-16": JointSearchSpace(cell_encoding=CellEncoding(max_vertices=4)).vocab_sizes,
    "micro5-21": JointSearchSpace(cell_encoding=CellEncoding(max_vertices=5)).vocab_sizes,
    "default-34": JointSearchSpace().vocab_sizes,
    "one-token": [5],
    "one-value-token": [3, 1, 4, 1, 2],
}
UPDATES = 25


def rewards_of(actions: np.ndarray) -> np.ndarray:
    """A reward that varies with every token of a rollout."""
    weights = np.arange(1, actions.shape[1] + 1)
    return np.cos(0.37 * (actions @ weights))


def assert_same_bytes(what: str, live: np.ndarray, frozen: np.ndarray) -> None:
    assert live.dtype == frozen.dtype and live.shape == frozen.shape, what
    assert live.tobytes() == frozen.tobytes(), what


def replay(vocab_sizes, batch_size: int, config: ReinforceConfig, keep=None):
    """Sample and update the live and frozen controllers side by side.

    ``keep(step, n)`` names the rollouts each update learns from; by
    default every rollout, in order.  Returns the frozen trainer.
    """
    live = ReinforceTrainer(SequencePolicy(vocab_sizes, seed=3), config)
    frozen = reference.ReferenceTrainer(SequencePolicy(vocab_sizes, seed=3), config)
    live_rng, frozen_rng = np.random.default_rng(11), np.random.default_rng(11)
    for step in range(UPDATES):
        batch = live.sample_batch(live_rng, batch_size)
        expected = frozen.sample_batch(frozen_rng, batch_size)
        assert_same_bytes(f"actions, update {step}", batch.actions, expected.actions)
        for t, (p, q) in enumerate(zip(batch.probs, expected.probs, strict=True)):
            assert_same_bytes(f"token {t} probs, update {step}", p, q)
        indices = list(range(batch_size)) if keep is None else keep(step, batch_size)
        rewards = rewards_of(batch.actions)[indices]
        advantages = live.update_batch(batch.subset(indices), rewards)
        expected_advantages = frozen.update_batch(expected.subset(indices), rewards)
        assert_same_bytes(f"advantages, update {step}", advantages, expected_advantages)
        assert_same_bytes(f"theta, update {step}", live.policy.theta, frozen.policy.theta)
        assert_same_bytes(f"adam m, update {step}", live.optimizer.m, frozen.optimizer.m)
        assert_same_bytes(f"adam v, update {step}", live.optimizer.v, frozen.optimizer.v)
        assert live.baseline == frozen.baseline, f"baseline, update {step}"
    assert live_rng.bit_generator.state == frozen_rng.bit_generator.state
    return frozen


@pytest.mark.parametrize("batch_size", [1, 2, 3, 16])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_layouts_and_batch_sizes(layout, batch_size):
    replay(LAYOUTS[layout], batch_size, ReinforceConfig())


@pytest.mark.parametrize("grad_clip", [0.0, 5.0, 1e-3])
@pytest.mark.parametrize("entropy_beta", [0.0, 0.05])
@pytest.mark.parametrize("batch_size", [1, 3])
def test_entropy_and_clip(entropy_beta, grad_clip, batch_size):
    config = ReinforceConfig(entropy_beta=entropy_beta, grad_clip=grad_clip)
    frozen = replay(LAYOUTS["micro5-21"], batch_size, config)
    if grad_clip == 1e-3:
        # It binds at every update but a first one whose gradient is 0.
        assert sum(norm > grad_clip for norm in frozen.norms) >= UPDATES - 1


@pytest.mark.parametrize("layout", ["micro5-21", "default-34"])
def test_updates_on_a_subset_of_the_batch(layout):
    """Two-tier mode updates on the screen's survivors only."""

    def survivors(step, n):
        return [i for i in range(n) if (i + step) % 3 != 0]

    replay(LAYOUTS[layout], 16, ReinforceConfig(grad_clip=1e-3), keep=survivors)
