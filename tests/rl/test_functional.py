"""Tests for RL numeric primitives."""

import numpy as np
import pytest

from repro.rl.functional import entropy, log_softmax, sigmoid, softmax, xavier_uniform


class TestSoftmax:
    def test_sums_to_one(self, rng):
        p = softmax(rng.normal(size=(4, 7)))
        assert np.allclose(p.sum(axis=-1), 1.0)

    def test_stable_for_large_logits(self):
        p = softmax(np.array([1000.0, 1000.0]))
        assert np.allclose(p, 0.5)

    def test_log_softmax_consistent(self, rng):
        logits = rng.normal(size=10)
        assert np.allclose(log_softmax(logits), np.log(softmax(logits)))

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=5)
        assert np.allclose(softmax(logits), softmax(logits + 100.0))


class TestSigmoid:
    def test_range(self, rng):
        out = sigmoid(rng.normal(size=100) * 50)
        assert np.all((out >= 0) & (out <= 1))

    def test_extremes_stable(self):
        assert sigmoid(np.array([-1e4]))[0] == pytest.approx(0.0)
        assert sigmoid(np.array([1e4]))[0] == pytest.approx(1.0)

    def test_symmetry(self):
        x = np.array([1.7])
        assert sigmoid(x)[0] + sigmoid(-x)[0] == pytest.approx(1.0)

    def test_bit_identical_to_two_branch_formula(self, rng):
        """The mask-free form equals the boolean-mask form bit for bit."""

        def two_branch(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            expx = np.exp(x[~pos])
            out[~pos] = expx / (1.0 + expx)
            return out

        edges = [0.0, -0.0, 1e-320, -1e-320, 709.0, -745.0, 1e308, -1e308,
                 np.inf, -np.inf]
        draws = [rng.normal(size=(16, 64)) * scale for scale in (0.1, 1, 10, 100, 800)]
        x = np.concatenate([np.array(edges)] + [d.ravel() for d in draws])
        assert np.array_equal(sigmoid(x).view(np.int64), two_branch(x).view(np.int64))
        assert np.isnan(sigmoid(np.array([np.nan]))[0])


class TestMisc:
    def test_entropy_uniform_is_max(self):
        uniform = np.full(4, 0.25)
        peaked = np.array([0.97, 0.01, 0.01, 0.01])
        assert entropy(uniform) == pytest.approx(np.log(4))
        assert entropy(peaked) < entropy(uniform)

    def test_entropy_nonnegative(self):
        assert entropy(np.array([1.0, 0.0])) >= 0

    def test_xavier_bounds(self, rng):
        w = xavier_uniform(rng, (64, 32))
        bound = np.sqrt(6.0 / (64 + 32))
        assert np.all(np.abs(w) <= bound)
        assert w.shape == (64, 32)
