"""Checkpoint/resume equivalence: a crashed search, resumed from its
last checkpoint, must finish bit-identical to an uninterrupted run.

The crash is simulated by an evaluation layer that raises after a
fixed number of batches — exactly what a ``kill -9`` looks like to the
strategy (state persisted at the last batch boundary, everything since
lost).  Resume constructs a *fresh* strategy from the same factory and
seed, restores the checkpoint through the ledger serializer (so the
round-trip is part of the test), and replays to completion.  The
killed cells of ``tests/integration/equivalence.py`` are the
real-SIGKILL, whole-study version.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evaluator import build_evaluator
from repro.core.scenarios import unconstrained
from repro.core.search_space import JointSearchSpace
from repro.parallel import MemoryCheckpoint
from repro.search.combined import CombinedSearch
from repro.search.evolution import EvolutionSearch
from repro.search.phase import PhaseSearch
from repro.search.random_search import RandomSearch
from repro.search.separate import SeparateSearch
from repro.search.threshold_schedule import ThresholdRung, ThresholdScheduleSearch

NUM_STEPS = 30

STRATEGY_FACTORIES = {
    "random": lambda space, seed: RandomSearch(space, seed=seed),
    "evolution": lambda space, seed: EvolutionSearch(
        space, seed=seed, population_size=8, tournament_size=3
    ),
    "combined": lambda space, seed: CombinedSearch(space, seed=seed),
    "separate": lambda space, seed: SeparateSearch(space, seed=seed, cnn_fraction=0.6),
    "phase": lambda space, seed: PhaseSearch(
        space, seed=seed, cnn_phase_steps=10, hw_phase_steps=5
    ),
}


class Crash(Exception):
    """Stands in for the power cord."""


def crash_after(evaluator, crash_after_batches):
    """``evaluator`` with its ``evaluate_batch`` raising past a batch count."""
    calls = [0]
    inner = evaluator.evaluate_batch

    def evaluate_batch(pairs):
        calls[0] += 1
        if calls[0] > crash_after_batches:
            raise Crash()
        return inner(pairs)

    evaluator.evaluate_batch = evaluate_batch
    return evaluator


@pytest.fixture
def space(micro4_bundle):
    return JointSearchSpace(cell_encoding=micro4_bundle.cell_encoding)


@pytest.fixture
def make_evaluator(micro4_bundle):
    scenario = unconstrained(micro4_bundle.bounds)
    return lambda: build_evaluator(
        "database", scenario, bundle=micro4_bundle, platform=micro4_bundle.platform
    )


def assert_results_identical(a, b):
    assert np.array_equal(a.reward_trace(), b.reward_trace(), equal_nan=True)
    assert len(a.archive) == len(b.archive)
    for ea, eb in zip(a.archive.entries, b.archive.entries):
        assert (ea.step, ea.phase, ea.reward, ea.feasible, ea.valid) == (
            eb.step, eb.phase, eb.reward, eb.feasible, eb.valid
        )
        assert ea.config == eb.config
        assert ea.spec.valid == eb.spec.valid
        if ea.spec.valid:
            assert ea.spec.spec_hash() == eb.spec.spec_hash()


class TestCrashResumeEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 16])
    @pytest.mark.parametrize("name", sorted(STRATEGY_FACTORIES))
    def test_resume_is_bit_identical(
        self, space, make_evaluator, name, batch_size
    ):
        factory = STRATEGY_FACTORIES[name]
        reference = factory(space, 7).run(
            make_evaluator(), NUM_STEPS, batch_size=batch_size
        )

        checkpoint = MemoryCheckpoint()
        crash_batch = max(1, 12 // batch_size)
        with pytest.raises(Crash):
            factory(space, 7).run(
                crash_after(make_evaluator(), crash_batch),
                NUM_STEPS,
                batch_size=batch_size,
                checkpoint=checkpoint,
                checkpoint_every=1,
            )
        assert checkpoint.saves == crash_batch

        resumed = factory(space, 7).run(
            make_evaluator(),
            NUM_STEPS,
            batch_size=batch_size,
            checkpoint=checkpoint,
            checkpoint_every=1,
        )
        assert_results_identical(reference, resumed)

    @pytest.mark.parametrize("checkpoint_every", [3, 7])
    def test_sparse_checkpoints_replay_identically(
        self, space, make_evaluator, checkpoint_every
    ):
        """A coarse checkpoint cadence replays the lost batches exactly."""
        factory = STRATEGY_FACTORIES["combined"]
        reference = factory(space, 3).run(make_evaluator(), NUM_STEPS)
        checkpoint = MemoryCheckpoint()
        with pytest.raises(Crash):
            factory(space, 3).run(
                crash_after(make_evaluator(), 17),
                NUM_STEPS,
                checkpoint=checkpoint,
                checkpoint_every=checkpoint_every,
            )
        resumed = factory(space, 3).run(
            make_evaluator(),
            NUM_STEPS,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
        )
        assert_results_identical(reference, resumed)

    def test_completed_checkpoint_short_circuits(self, space, make_evaluator):
        """Resuming a finished search replays nothing (0 evaluations)."""
        checkpoint = MemoryCheckpoint()
        reference = RandomSearch(space, seed=5).run(
            make_evaluator(), NUM_STEPS, checkpoint=checkpoint
        )
        evaluator = make_evaluator()
        resumed = RandomSearch(space, seed=5).run(
            evaluator, NUM_STEPS, checkpoint=checkpoint
        )
        assert evaluator.num_evaluations == 0
        assert_results_identical(reference, resumed)

    def test_early_stop_saves_the_last_batch(self, space, make_evaluator):
        """A search that ``ask`` ends early still checkpoints its last
        batch, so a resume replays nothing."""

        class StopsAfterFive(RandomSearch):
            def ask(self, n):
                return [] if len(self.archive) >= 5 else super().ask(n)

        checkpoint = MemoryCheckpoint()
        StopsAfterFive(space, seed=0).run(
            make_evaluator(), NUM_STEPS, checkpoint=checkpoint, checkpoint_every=3
        )
        assert checkpoint.saves == 2
        assert checkpoint.load()["steps_done"] == 5
        evaluator = make_evaluator()
        StopsAfterFive(space, seed=0).run(
            evaluator, NUM_STEPS, checkpoint=checkpoint, checkpoint_every=3
        )
        assert evaluator.num_evaluations == 0


class TestThresholdScheduleResume:
    RUNGS = [ThresholdRung(2.0, 3, 12), ThresholdRung(8.0, 3, 12)]

    def factory(self, space):
        return ThresholdScheduleSearch(space, seed=7, rungs=self.RUNGS)

    @pytest.mark.parametrize("batch_size", [1, 16])
    def test_resume_is_bit_identical(self, space, make_evaluator, batch_size):
        reference = self.factory(space).run(
            make_evaluator(), num_steps=20, batch_size=batch_size
        )

        checkpoint = MemoryCheckpoint()
        crashing = self.factory(space)
        updates = [0]
        inner = crashing.trainer.update_batch

        def crashing_update(batch, rewards):
            updates[0] += 1
            if updates[0] > max(1, 4 // batch_size):
                raise Crash()
            return inner(batch, rewards)

        crashing.trainer.update_batch = crashing_update
        with pytest.raises(Crash):
            crashing.run(
                make_evaluator(),
                num_steps=20,
                batch_size=batch_size,
                checkpoint=checkpoint,
                checkpoint_every=1,
            )
        assert checkpoint.saves > 0

        resumed = self.factory(space).run(
            make_evaluator(),
            num_steps=20,
            batch_size=batch_size,
            checkpoint=checkpoint,
            checkpoint_every=1,
        )
        assert_results_identical(reference, resumed)
        assert sorted(reference.extras["per_rung"]) == sorted(
            resumed.extras["per_rung"]
        )
        for threshold, rung_archive in reference.extras["per_rung"].items():
            assert np.array_equal(
                rung_archive.reward_trace(),
                resumed.extras["per_rung"][threshold].reward_trace(),
                equal_nan=True,
            )


class TestStateDictContract:
    def test_wrong_strategy_rejected(self, space):
        state = RandomSearch(space, seed=0).state_dict()
        with pytest.raises(ValueError, match="random"):
            CombinedSearch(space, seed=0).load_state_dict(state)

    def test_policy_shape_mismatch_rejected(self, space):
        a = CombinedSearch(space, seed=0, hidden_size=32)
        b = CombinedSearch(space, seed=0, hidden_size=64)
        with pytest.raises(ValueError):
            b.policy.load_state_dict(a.policy.state_dict())

    def test_mid_batch_checkpoint_rejected(self, space):
        strategy = CombinedSearch(space, seed=0)
        strategy.ask(2)
        with pytest.raises(RuntimeError, match="between ask and tell"):
            strategy.state_dict()

    def test_bad_checkpoint_every_rejected(self, space, make_evaluator):
        with pytest.raises(ValueError):
            RandomSearch(space, seed=0).run(
                make_evaluator(), 5, checkpoint_every=0
            )


def test_duplicate_rung_thresholds_rejected(space):
    # per_rung archives are keyed by threshold, so a repeated value
    # would silently merge two rungs' entries.
    with pytest.raises(ValueError, match="unique"):
        ThresholdScheduleSearch(
            space,
            seed=0,
            rungs=[ThresholdRung(2.0, 3, 12), ThresholdRung(2.0, 5, 20)],
        )
