"""Tests for the LSTM cell, including gradient checking."""

import numpy as np
import pytest

from repro.rl.lstm import LSTMCell, LSTMState


@pytest.fixture
def cell(rng):
    return LSTMCell(input_size=5, hidden_size=7, rng=rng)


class TestForward:
    def test_shapes(self, cell):
        state, cache = cell.forward(np.zeros((3, 5)), LSTMState.zeros(3, 7))
        assert state.h.shape == (3, 7)
        assert state.c.shape == (3, 7)

    def test_state_evolves(self, cell, rng):
        x = rng.normal(size=(1, 5))
        s1, _ = cell.forward(x, LSTMState.zeros(1, 7))
        s2, _ = cell.forward(x, s1)
        assert not np.allclose(s1.h, s2.h)

    def test_forget_bias_initialized(self, cell):
        hs = cell.hidden_size
        assert np.all(cell.params["b"][hs: 2 * hs] == 1.0)

    def test_bounded_outputs(self, cell, rng):
        state, _ = cell.forward(rng.normal(size=(2, 5)) * 10, LSTMState.zeros(2, 7))
        assert np.all(np.abs(state.h) <= 1.0)  # |o * tanh(c)| <= 1


class TestBackward:
    def test_gradient_check(self, rng):
        cell = LSTMCell(input_size=3, hidden_size=4, rng=rng)
        x = rng.normal(size=(2, 3))
        h0 = rng.normal(size=(2, 4))
        c0 = rng.normal(size=(2, 4))

        def loss():
            state, _ = cell.forward(x, LSTMState(h0.copy(), c0.copy()))
            return float(np.sum(state.h) + 0.5 * np.sum(state.c))

        state, cache = cell.forward(x, LSTMState(h0.copy(), c0.copy()))
        grads = {k: np.zeros_like(v) for k, v in cell.params.items()}
        dx, dh0, dc0 = cell.backward_step(
            np.ones((2, 4)), 0.5 * np.ones((2, 4)), cache, grads
        )
        eps = 1e-6
        worst = 0.0
        for name, param in cell.params.items():
            flat = param.reshape(-1)
            gflat = grads[name].reshape(-1)
            for idx in rng.choice(flat.size, size=6, replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                plus = loss()
                flat[idx] = orig - eps
                minus = loss()
                flat[idx] = orig
                numeric = (plus - minus) / (2 * eps)
                denom = max(abs(numeric), abs(gflat[idx]), 1e-8)
                worst = max(worst, abs(numeric - gflat[idx]) / denom)
        assert worst < 1e-5

    def test_input_gradient_check(self, rng):
        cell = LSTMCell(input_size=3, hidden_size=4, rng=rng)
        x = rng.normal(size=(1, 3))
        state0 = LSTMState.zeros(1, 4)
        state, cache = cell.forward(x, state0)
        grads = {k: np.zeros_like(v) for k, v in cell.params.items()}
        dx, _, _ = cell.backward_step(np.ones((1, 4)), np.zeros((1, 4)), cache, grads)
        eps = 1e-6
        for j in range(3):
            xp = x.copy()
            xp[0, j] += eps
            plus = float(np.sum(cell.forward(xp, state0)[0].h))
            xm = x.copy()
            xm[0, j] -= eps
            minus = float(np.sum(cell.forward(xm, state0)[0].h))
            numeric = (plus - minus) / (2 * eps)
            assert numeric == pytest.approx(dx[0, j], rel=1e-4, abs=1e-7)
