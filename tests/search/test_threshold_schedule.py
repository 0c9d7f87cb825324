"""Tests for the Section IV threshold-schedule search."""

import pytest

from repro.core.evaluator import CodesignEvaluator
from repro.core.scenarios import (
    CIFAR100_BOUNDS,
    CIFAR100_THRESHOLD_SCHEDULE,
    cifar100_threshold,
)
from repro.core.search_space import JointSearchSpace
from repro.nasbench.skeleton import CIFAR100_SKELETON
from repro.search.threshold_schedule import (
    ThresholdRung,
    ThresholdScheduleSearch,
    default_rungs,
)
from repro.training.cache import CachedTrainer
from repro.training.surrogate_trainer import SurrogateCifar100Trainer


def make_evaluator():
    trainer = CachedTrainer(SurrogateCifar100Trainer())
    return CodesignEvaluator(
        accuracy_fn=trainer.accuracy_fn,
        reward_config=cifar100_threshold(2.0, CIFAR100_BOUNDS),
        skeleton=CIFAR100_SKELETON,
    )


class TestRungs:
    def test_default_schedule_matches_paper(self):
        rungs = default_rungs()
        assert tuple(r.threshold for r in rungs) == CIFAR100_THRESHOLD_SCHEDULE
        assert rungs[0].target_valid_points == 300
        assert rungs[-1].target_valid_points == 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdRung(2.0, 0, 10)
        with pytest.raises(ValueError):
            ThresholdRung(2.0, 100, 50)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            default_rungs(thresholds=(1.0, 2.0), targets=(10,))


class TestSearch:
    @pytest.fixture
    def result(self):
        rungs = [ThresholdRung(2.0, 10, 40), ThresholdRung(16.0, 10, 40)]
        search = ThresholdScheduleSearch(
            JointSearchSpace(), seed=0, rungs=rungs, bounds=CIFAR100_BOUNDS
        )
        return search.run(make_evaluator())

    def test_visits_every_rung(self, result):
        assert set(result.extras["per_rung"]) == {2.0, 16.0}

    def test_rung_feasible_points_meet_constraint(self, result):
        for threshold, archive in result.extras["per_rung"].items():
            for entry in archive.feasible_entries():
                assert entry.metrics.perf_per_area >= threshold

    def test_top10_bounded(self, result):
        for entries in result.extras["top10"].values():
            assert len(entries) <= 10

    def test_phases_tagged_with_threshold(self, result):
        phases = {e.phase for e in result.archive.entries}
        assert "th-2" in phases and "th-16" in phases

    def test_step_cap_respected(self):
        rungs = [ThresholdRung(2.0, 1000, 1000)]
        search = ThresholdScheduleSearch(
            JointSearchSpace(), seed=0, rungs=rungs, bounds=CIFAR100_BOUNDS
        )
        result = search.run(make_evaluator(), num_steps=25)
        assert len(result.archive) == 25
