"""Tests for the calibrated CIFAR-10 surrogate."""

import numpy as np
import pytest

from repro.nasbench.database import enumerate_unique_cells
from repro.nasbench.known_cells import googlenet_cell, resnet_cell
from repro.nasbench.model_spec import ModelSpec
from repro.nasbench.ops import CONV3X3, INPUT, MAXPOOL3X3, OUTPUT
from repro.nasbench.surrogate import Cifar10Surrogate, extract_features


def chain_spec(*interior):
    n = len(interior) + 2
    m = np.zeros((n, n), dtype=int)
    for i in range(n - 1):
        m[i, i + 1] = 1
    return ModelSpec(m, (INPUT, *interior, OUTPUT))


class TestFeatures:
    def test_resnet_features(self):
        f = extract_features(resnet_cell())
        assert f.n_conv3x3 == 2
        assert f.depth == 4
        assert f.has_output_skip
        assert f.giga_macs > 2.0
        assert 7.0 < f.log10_params < 7.6

    def test_googlenet_wider_than_resnet(self):
        assert extract_features(googlenet_cell()).width > extract_features(resnet_cell()).width

    def test_invalid_spec_rejected(self):
        bad = ModelSpec(np.zeros((3, 3), dtype=int), (INPUT, CONV3X3, OUTPUT))
        with pytest.raises(ValueError):
            extract_features(bad)

    def test_vector_shape(self):
        assert extract_features(resnet_cell()).as_vector().shape == (10,)


class TestAccuracy:
    def test_deterministic(self):
        s = Cifar10Surrogate()
        spec = resnet_cell()
        assert s.validation_accuracy(spec) == s.validation_accuracy(spec)

    def test_seed_changes_noise(self):
        spec = resnet_cell()
        a = Cifar10Surrogate(seed=1).validation_accuracy(spec)
        b = Cifar10Surrogate(seed=2).validation_accuracy(spec)
        assert a != b
        assert abs(a - b) < 3.0  # same mean, different noise

    def test_within_bounds(self):
        s = Cifar10Surrogate()
        acc = s.validation_accuracy(resnet_cell())
        assert s.floor <= acc <= s.ceiling

    def test_deeper_conv_cells_beat_shallow(self):
        s = Cifar10Surrogate(noise_std=0.0)
        deep = chain_spec(CONV3X3, CONV3X3, CONV3X3)
        shallow = chain_spec(CONV3X3)
        assert s.validation_accuracy(deep) > s.validation_accuracy(shallow)

    def test_pool_only_cell_is_weak(self):
        s = Cifar10Surrogate(noise_std=0.0)
        pooly = chain_spec(MAXPOOL3X3, MAXPOOL3X3)
        convy = chain_spec(CONV3X3, CONV3X3)
        assert s.validation_accuracy(convy) - s.validation_accuracy(pooly) > 1.0

    def test_resnet_beats_most_of_micro_space(self):
        s = Cifar10Surrogate()
        assert s.validation_accuracy(resnet_cell()) > 92.5

    def test_test_accuracy_below_validation(self):
        s = Cifar10Surrogate(noise_std=0.0)
        spec = resnet_cell()
        assert s.test_accuracy(spec) < s.validation_accuracy(spec)


class TestTrainingTime:
    def test_positive_and_scales_with_macs(self):
        s = Cifar10Surrogate()
        small = chain_spec(MAXPOOL3X3)
        big = resnet_cell()
        assert 0 < s.training_seconds(small) < s.training_seconds(big)


class TestStatistics:
    def test_matches_per_spec_methods_bit_for_bit(self):
        """The (features, hash) path the database uses, on the micro-4 cells."""
        s = Cifar10Surrogate()
        for spec in enumerate_unique_cells(4):
            stats = s.statistics(extract_features(spec), spec.spec_hash())
            per_spec = (
                s.validation_accuracy(spec),
                s.test_accuracy(spec),
                s.training_seconds(spec),
            )
            assert [v.hex() for v in stats] == [v.hex() for v in per_spec]
