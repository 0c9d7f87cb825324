"""A single LSTM cell with manual forward/backward (numpy).

The paper's controller "is implemented as a single LSTM cell followed
by a linear layer" (Section II-A, after [5]); this is that cell.
Gradients are hand-derived and verified against finite differences in
the test suite (``tests/rl/test_gradcheck.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rl.functional import sigmoid, xavier_uniform

__all__ = ["LSTMCell", "LSTMState", "LSTMCache"]


@dataclass
class LSTMState:
    """Hidden and cell state, shape (batch, hidden)."""

    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, batch: int, hidden: int) -> "LSTMState":
        return cls(np.zeros((batch, hidden)), np.zeros((batch, hidden)))


@dataclass
class LSTMCache:
    """Forward intermediates needed by the backward pass."""

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    c: np.ndarray


class LSTMCell:
    """Standard LSTM cell: gates ``i, f, g, o`` in that parameter order.

    :class:`~repro.rl.policy.SequencePolicy` rebinds :attr:`params` to
    views into its one parameter vector.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.params = {
            "wx": xavier_uniform(rng, (input_size, 4 * hidden_size)),
            "wh": xavier_uniform(rng, (hidden_size, 4 * hidden_size)),
            "b": np.zeros(4 * hidden_size),
        }
        # Positive forget-gate bias: standard trick for gradient flow.
        self.params["b"][hidden_size: 2 * hidden_size] = 1.0

    def forward(
        self, x: np.ndarray, state: LSTMState
    ) -> tuple[LSTMState, LSTMCache]:
        """One step; ``x`` has shape (batch, input_size)."""
        hs = self.hidden_size
        z = x @ self.params["wx"] + state.h @ self.params["wh"] + self.params["b"]
        i = sigmoid(z[:, :hs])
        f = sigmoid(z[:, hs: 2 * hs])
        g = np.tanh(z[:, 2 * hs: 3 * hs])
        o = sigmoid(z[:, 3 * hs:])
        c = f * state.c + i * g
        h = o * np.tanh(c)
        cache = LSTMCache(x=x, h_prev=state.h, c_prev=state.c, i=i, f=f, g=g, o=o, c=c)
        return LSTMState(h=h, c=c), cache

    def backward_step(
        self,
        dh: np.ndarray,
        dc: np.ndarray,
        cache: LSTMCache,
        grads: dict[str, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backprop one step.

        ``dh``/``dc`` are gradients w.r.t. this step's output state;
        returns ``(dx, dh_prev, dc_prev)`` and accumulates parameter
        gradients into ``grads`` (keys as in ``self.params``).
        """
        i, f, g, o, c = cache.i, cache.f, cache.g, cache.o, cache.c
        tanh_c = np.tanh(c)
        do = dh * tanh_c
        dc_total = dc + dh * o * (1.0 - tanh_c**2)
        df = dc_total * cache.c_prev
        di = dc_total * g
        dg = dc_total * i
        dc_prev = dc_total * f

        dzi = di * i * (1.0 - i)
        dzf = df * f * (1.0 - f)
        dzg = dg * (1.0 - g**2)
        dzo = do * o * (1.0 - o)
        dz = np.concatenate([dzi, dzf, dzg, dzo], axis=1)

        grads["wx"] += cache.x.T @ dz
        grads["wh"] += cache.h_prev.T @ dz
        grads["b"] += dz.sum(axis=0)
        dx = dz @ self.params["wx"].T
        dh_prev = dz @ self.params["wh"].T
        return dx, dh_prev, dc_prev
