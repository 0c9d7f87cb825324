"""Tests for Adam and gradient clipping over one parameter vector."""

import numpy as np
import pytest

from repro.rl.optim import Adam, clip_grad_norm


class TestClip:
    def test_no_clip_under_norm(self):
        grad = np.array([3.0, 4.0])
        norm = clip_grad_norm(grad, lambda v: {"w": v}, max_norm=10.0)
        assert norm == pytest.approx(5.0)
        assert np.allclose(grad, [3.0, 4.0])

    def test_clips_to_max(self):
        grad = np.array([3.0, 4.0])
        clip_grad_norm(grad, lambda v: {"w": v}, max_norm=1.0)
        assert np.linalg.norm(grad) == pytest.approx(1.0, rel=1e-6)

    def test_global_norm_across_params(self):
        grad = np.array([3.0, 4.0])
        clip_grad_norm(grad, lambda v: {"a": v[:1], "b": v[1:]}, max_norm=1.0)
        assert np.allclose(grad, [0.6, 0.8])

    def test_zero_max_norm_disables_clipping(self):
        grad = np.array([30.0, 40.0])
        assert clip_grad_norm(grad, lambda v: {"w": v}, max_norm=0.0) == pytest.approx(50.0)
        assert np.array_equal(grad, [30.0, 40.0])


class TestAdam:
    def test_first_step_magnitude(self):
        opt = Adam(1, lr=0.1)
        params = np.zeros(1)
        opt.step(params, np.array([5.0]))
        # Bias-corrected first step has magnitude ~lr.
        assert params[0] == pytest.approx(-0.1, rel=1e-3)

    def test_direction_opposes_gradient(self, rng):
        opt = Adam(10, lr=0.01)
        grad = rng.normal(size=10)
        params = np.zeros(10)
        opt.step(params, grad)
        assert np.all(np.sign(params) == -np.sign(grad))

    @pytest.mark.parametrize("lr", [-0.1, 0.0, float("nan"), float("inf")])
    def test_validation(self, lr):
        with pytest.raises(ValueError, match="lr"):
            Adam(3, lr=lr)
