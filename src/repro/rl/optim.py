"""Adam and gradient-norm clipping over one flat parameter vector (numpy).

The controller keeps every trainable array as a view into one float64
vector (:attr:`repro.rl.policy.SequencePolicy.theta`), so the optimizer
steps it with a handful of vector operations.  Checkpoints still store
weights and moments per parameter: the ``views``/``pack`` callables
passed to :meth:`Adam.state_dict` / :meth:`Adam.load_state_dict` map
between the vector and that layout.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

__all__ = ["Adam", "clip_grad_norm"]


def clip_grad_norm(
    grad: np.ndarray, parts: Iterable[np.ndarray], max_norm: float
) -> float:
    """Scale ``grad`` in place so its global L2 norm <= ``max_norm``.

    ``parts`` are the per-parameter views of ``grad``.  The squared
    norm is summed one parameter at a time, in order: a whole-vector
    sum rounds differently in the last bits, which moves the clipping
    decision and hence search results.  ``max_norm == 0`` disables
    clipping.  Returns the pre-clip norm.
    """
    total = float(np.sqrt(sum(float(np.sum(g**2)) for g in parts)))
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
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, grad: np.ndarray) -> np.ndarray:
        """Advance the moments by ``grad``; return the parameter delta."""
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad**2
        m_hat = self.m / (1 - self.beta1**self.t)
        v_hat = self.v / (1 - self.beta2**self.t)
        return -self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

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
