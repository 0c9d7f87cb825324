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
    """Forward intermediates needed by the backward pass.

    ``gates`` is the logistic function of the whole ``(batch, 4 *
    hidden)`` gate pre-activation: its slabs are the ``i``, ``f`` and
    ``o`` gates, in parameter order, and its ``g`` slab goes unused
    (``g`` is ``tanh`` of that slab).  ``tanh_c`` is ``tanh(c)`` as the
    forward pass computed it for ``h``; the backward pass reuses it.
    """

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    gates: np.ndarray
    g: np.ndarray
    c: np.ndarray
    h: np.ndarray
    tanh_c: np.ndarray


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
        """One step; ``x`` has shape (batch, input_size).

        One :func:`sigmoid` runs over the whole gate pre-activation: the
        function is elementwise, so each gate's slab holds the bits a
        call on that slab alone would.
        """
        hs = self.hidden_size
        z = (
            np.dot(x, self.params["wx"])
            + np.dot(state.h, self.params["wh"])
            + self.params["b"]
        )
        gates = sigmoid(z)
        i, f, o = gates[:, :hs], gates[:, hs: 2 * hs], gates[:, 3 * hs:]
        g = np.tanh(z[:, 2 * hs: 3 * hs])
        c = f * state.c + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        cache = LSTMCache(
            x=x, h_prev=state.h, c_prev=state.c, gates=gates, g=g, c=c, h=h,
            tanh_c=tanh_c,
        )
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

        The gate gradients are written into one ``(batch, 4 * hidden)``
        array, each in the order ``(d * s) * (1 - s)``.  The weight
        gradients are added to ``grads`` here, one step at a time:
        summing them over all steps first would round differently.
        """
        hs = self.hidden_size
        gates, g, tanh_c = cache.gates, cache.g, cache.tanh_c
        i, f, o = gates[:, :hs], gates[:, hs: 2 * hs], gates[:, 3 * hs:]
        dc_total = dc + dh * o * (1.0 - tanh_c**2)
        dc_prev = dc_total * f

        # di, df and do, then d * s * (1 - s) over every slab; the g slab
        # is zero until dg * (1 - g**2) replaces it, so its product stays
        # finite.
        dz = np.empty((len(dh), 4 * hs))
        np.multiply(dc_total, g, out=dz[:, :hs])
        np.multiply(dc_total, cache.c_prev, out=dz[:, hs: 2 * hs])
        dz[:, 2 * hs: 3 * hs] = 0.0
        np.multiply(dh, tanh_c, out=dz[:, 3 * hs:])
        dz *= gates
        dz *= 1.0 - gates
        np.multiply(dc_total * i, 1.0 - g**2, out=dz[:, 2 * hs: 3 * hs])

        grads["wx"] += np.dot(cache.x.T, dz)
        grads["wh"] += np.dot(cache.h_prev.T, dz)
        grads["b"] += dz.sum(axis=0)
        dx = np.dot(dz, self.params["wx"].T)
        dh_prev = np.dot(dz, self.params["wh"].T)
        return dx, dh_prev, dc_prev
