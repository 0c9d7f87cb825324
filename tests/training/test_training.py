"""Tests for the training oracles: the CIFAR-100 surrogate trainer and its cache."""

import numpy as np
import pytest

from repro.nasbench.known_cells import KNOWN_CELLS, googlenet_cell, resnet_cell
from repro.nasbench.model_spec import ModelSpec
from repro.nasbench.ops import CONV3X3, INPUT, OUTPUT
from repro.nasbench.surrogate import extract_features
from repro.training.cache import CachedTrainer
from repro.training.oracle import TrainOutcome
from repro.training.surrogate_trainer import CIFAR100_ANCHORS, SurrogateCifar100Trainer


class TestSurrogateTrainer:
    def test_anchors_pinned_exactly(self):
        trainer = SurrogateCifar100Trainer()
        for name, target in CIFAR100_ANCHORS.items():
            assert trainer.mean_accuracy(KNOWN_CELLS[name]()) == pytest.approx(target)

    def test_anchor_order_matches_paper(self):
        trainer = SurrogateCifar100Trainer()
        cod1 = trainer.mean_accuracy(KNOWN_CELLS["cod1"]())
        resnet = trainer.mean_accuracy(resnet_cell())
        googlenet = trainer.mean_accuracy(googlenet_cell())
        cod2 = trainer.mean_accuracy(KNOWN_CELLS["cod2"]())
        assert cod1 > resnet > cod2 > googlenet

    def test_training_is_deterministic_per_cell(self):
        trainer = SurrogateCifar100Trainer(seed=5)
        a = trainer.train_and_score(resnet_cell()).accuracy
        b = trainer.train_and_score(resnet_cell()).accuracy
        assert a == b

    def test_noise_differs_across_seeds(self):
        a = SurrogateCifar100Trainer(seed=1).train_and_score(resnet_cell()).accuracy
        b = SurrogateCifar100Trainer(seed=2).train_and_score(resnet_cell()).accuracy
        assert a != b

    def test_gpu_hours_per_run(self):
        trainer = SurrogateCifar100Trainer()
        for cell in (resnet_cell(), googlenet_cell()):
            outcome = trainer.train_and_score(cell)
            assert outcome.gpu_hours == trainer.gpu_hours(extract_features(cell))
            assert outcome.gpu_hours > trainer.gpu_hours_base
        assert trainer.num_trainings == 2

    def test_featurizes_and_hashes_once_per_run(self, monkeypatch):
        import repro.training.surrogate_trainer as module

        trainer = SurrogateCifar100Trainer()
        cell = KNOWN_CELLS["cod1"]()
        expected = trainer.train_and_score(cell)
        calls = {"features": 0, "hash": 0}
        spec_hash = ModelSpec.spec_hash

        def counting_features(spec):
            calls["features"] += 1
            return extract_features(spec)

        def counting_hash(self):
            calls["hash"] += 1
            return spec_hash(self)

        monkeypatch.setattr(module, "extract_features", counting_features)
        monkeypatch.setattr(ModelSpec, "spec_hash", counting_hash)
        assert trainer.train_and_score(cell) == expected
        assert calls == {"features": 1, "hash": 1}

    def test_accuracy_within_bounds(self):
        trainer = SurrogateCifar100Trainer()
        acc = trainer.train_and_score(KNOWN_CELLS["cod1"]()).accuracy
        assert trainer.floor <= acc <= trainer.ceiling

    def test_invalid_spec_rejected(self):
        trainer = SurrogateCifar100Trainer()
        bad = ModelSpec(np.zeros((3, 3), dtype=int), (INPUT, CONV3X3, OUTPUT))
        with pytest.raises(ValueError):
            trainer.train_and_score(bad)
        assert trainer.accuracy_fn(bad) is None


NAN, INF = float("nan"), float("inf")


class TestSurrogateTrainerFieldChecks:
    @pytest.mark.parametrize("value", [-1.0, NAN, INF])
    @pytest.mark.parametrize(
        "field", ["noise_std", "gpu_hours_base", "gpu_hours_per_gmac"]
    )
    def test_non_negative_field_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a finite number >= 0"):
            SurrogateCifar100Trainer(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("floor", -1.0), ("floor", NAN), ("ceiling", 100.5), ("ceiling", INF)],
    )
    def test_clip_outside_percent_range_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a finite number in"):
            SurrogateCifar100Trainer(**{field: value})

    def test_floor_above_ceiling_refused(self):
        with pytest.raises(ValueError, match=r"floor \(80\) must not exceed ceiling"):
            SurrogateCifar100Trainer(floor=80)

    def test_zero_cost_runs_are_free(self):
        trainer = SurrogateCifar100Trainer(gpu_hours_base=0, gpu_hours_per_gmac=0.0)
        assert trainer.train_and_score(resnet_cell()).gpu_hours == 0.0


class TestCache:
    def test_hit_avoids_retraining(self):
        inner = SurrogateCifar100Trainer()
        cached = CachedTrainer(inner)
        cached.train_and_score(resnet_cell())
        cached.train_and_score(resnet_cell())
        assert inner.num_trainings == 1
        assert cached.hits == 1
        assert cached.misses == 1
        assert cached.unique_cells_trained == 1

    def test_trains_unique_cells_only(self):
        cached = CachedTrainer(SurrogateCifar100Trainer())
        cached.train_and_score(resnet_cell())
        cached.train_and_score(resnet_cell())
        cached.train_and_score(googlenet_cell())
        assert cached.oracle.num_trainings == cached.misses == 2
        assert cached.hits == 1

    def test_accuracy_fn_none_for_invalid(self):
        cached = CachedTrainer(SurrogateCifar100Trainer())
        bad = ModelSpec(np.zeros((3, 3), dtype=int), (INPUT, CONV3X3, OUTPUT))
        assert cached.accuracy_fn(bad) is None


class TestOutcome:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainOutcome(accuracy=120.0, gpu_hours=1.0)
        with pytest.raises(ValueError):
            TrainOutcome(accuracy=50.0, gpu_hours=-1.0)
