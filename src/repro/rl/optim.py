"""Adam and gradient-norm clipping over one flat parameter vector (numpy).

The controller keeps every trainable array as a view into one float64
vector (:attr:`repro.rl.policy.SequencePolicy.theta`), so the optimizer
steps it with a handful of vector operations.  Checkpoints still store
weights and moments per parameter: the ``views``/``pack`` callables
passed to :meth:`Adam.state_dict` / :meth:`Adam.load_state_dict` map
between the vector and that layout.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

__all__ = ["Adam", "clip_grad_norm"]


def clip_grad_norm(
    grad: np.ndarray,
    views: Callable[[np.ndarray], dict[str, np.ndarray]],
    max_norm: float,
) -> float:
    """Scale ``grad`` in place so its global L2 norm <= ``max_norm``.

    ``views`` splits a vector laid out like ``grad`` into its named
    per-parameter views.  ``grad`` is squared once; the squared norm is
    then summed one parameter view at a time, in order: a whole-vector
    sum rounds differently in the last bits, which moves the clipping
    decision and hence search results.  ``max_norm == 0`` disables
    clipping.  Returns the pre-clip norm.
    """
    squared = grad**2
    total = float(np.sqrt(sum(float(part.sum()) for part in views(squared).values())))
    if max_norm > 0 and total > max_norm:
        grad *= max_norm / (total + 1e-12)
    return total


class Adam:
    """Adam (Kingma & Ba, 2015) over a parameter vector of ``size``."""

    def __init__(
        self,
        size: int,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"lr must be finite and positive, got {lr}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self._scratch = np.empty(size)
        self._step = np.empty(size)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """Advance the moments by ``grad`` and move ``params`` in place.

        ``params += -lr * m_hat / (sqrt(v_hat) + eps)``.  The moments
        are updated in place and the step is built in reused buffers;
        each operation keeps the order of the textbook expressions
        (``m = b1 * m + (1 - b1) * g``, ...), so the bits do not depend
        on the buffers.
        """
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        scratch, step = self._scratch, self._step
        self.m *= b1
        np.multiply(grad, 1 - b1, out=scratch)
        self.m += scratch
        self.v *= b2
        np.square(grad, out=scratch)
        scratch *= 1 - b2
        self.v += scratch
        np.divide(self.v, 1 - b2**self.t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += self.eps
        np.divide(self.m, 1 - b1**self.t, out=step)
        step *= -self.lr
        step /= scratch
        params += step

    def state_dict(
        self, views: Callable[[np.ndarray], dict[str, np.ndarray]]
    ) -> dict:
        """Step count and moments, split per parameter by ``views``.

        The moments are ``{}`` before the first step.  See the
        checkpoint/resume contract on
        :meth:`repro.search.SearchStrategy.state_dict`.
        """

        def named(moment: np.ndarray) -> dict[str, np.ndarray]:
            return views(moment.copy()) if self.t else {}

        return {"t": self.t, "m": named(self.m), "v": named(self.v)}

    def load_state_dict(
        self, state: dict, pack: Callable[[dict], np.ndarray]
    ) -> None:
        """Restore a :meth:`state_dict`; ``pack`` joins named moments."""
        self.t = int(state["t"])
        self.m = pack(state["m"]) if state["m"] else np.zeros_like(self.m)
        self.v = pack(state["v"]) if state["v"] else np.zeros_like(self.v)
