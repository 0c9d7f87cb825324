"""A frozen copy of the REINFORCE controller's arithmetic, for bit checks.

These are the controller's sampling, backward pass, gradient clip and
Adam step as they stood before its hot path was rewritten for speed,
copied verbatim (``self`` renamed where a method became a function).
``tests/rl/test_reference_controller.py`` runs them beside
:mod:`repro.rl` and demands byte-equal actions, probabilities,
parameters, Adam moments and baseline.  Do not edit this module to
make that test pass: it is the definition of the bits the controller
must keep.  Only the policy's parameter layout (``views``, ``params``,
``theta``) is shared with the live code.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable logistic function: ``exp`` only ever sees ``-|x|``."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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
    h: np.ndarray


def lstm_forward(cell, x: np.ndarray, state: LSTMState) -> tuple[LSTMState, LSTMCache]:
    """One step; ``x`` has shape (batch, input_size)."""
    hs = cell.hidden_size
    z = x @ cell.params["wx"] + state.h @ cell.params["wh"] + cell.params["b"]
    i = sigmoid(z[:, :hs])
    f = sigmoid(z[:, hs: 2 * hs])
    g = np.tanh(z[:, 2 * hs: 3 * hs])
    o = sigmoid(z[:, 3 * hs:])
    c = f * state.c + i * g
    h = o * np.tanh(c)
    cache = LSTMCache(
        x=x, h_prev=state.h, c_prev=state.c, i=i, f=f, g=g, o=o, c=c, h=h
    )
    return LSTMState(h=h, c=c), cache


def lstm_backward_step(
    cell,
    dh: np.ndarray,
    dc: np.ndarray,
    cache: LSTMCache,
    grads: dict[str, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backprop one step; accumulates parameter gradients into ``grads``."""
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
    dx = dz @ cell.params["wx"].T
    dh_prev = dz @ cell.params["wh"].T
    return dx, dh_prev, dc_prev


@dataclass
class PolicyBatch:
    """``n`` rollouts sampled from one set of policy parameters."""

    actions: np.ndarray                                  # (n, T) int64
    caches: list[LSTMCache] = field(repr=False, default_factory=list)
    probs: list[np.ndarray] = field(repr=False, default_factory=list)

    def __len__(self) -> int:
        return len(self.actions)

    def subset(self, indices: Sequence[int]) -> "PolicyBatch":
        """The batch restricted to rollouts ``indices`` (in that order)."""
        indices = list(indices)
        if indices == list(range(len(self))):
            return self
        return PolicyBatch(
            actions=self.actions[indices],
            caches=[
                LSTMCache(**{name: value[indices] for name, value in vars(c).items()})
                for c in self.caches
            ],
            probs=[p[indices] for p in self.probs],
        )


def sample_batch(policy, rng: np.random.Generator, n: int) -> PolicyBatch:
    """Sample ``n`` rollouts from the current parameters in one pass."""
    if n < 1:
        raise ValueError(f"batch size must be positive, got {n}")
    state = LSTMState.zeros(n, policy.hidden_size)
    actions = np.empty((n, len(policy.vocab_sizes)), dtype=np.int64)
    caches: list[LSTMCache] = []
    probs: list[np.ndarray] = []
    for t in range(len(policy.vocab_sizes)):
        if t == 0:
            x = np.repeat(policy.params["start"][None, :], n, axis=0)
        else:
            x = policy.params[f"emb{t - 1}"][actions[:, t - 1]]
        state, cache = lstm_forward(policy.cell, x, state)
        caches.append(cache)
        logits = state.h @ policy.params[f"head_w{t}"] + policy.params[f"head_b{t}"]
        p = softmax(logits, axis=-1)
        probs.append(p)
        cdf = np.cumsum(p, axis=1)
        cdf /= cdf[:, -1:]
        u = rng.random(n)
        actions[:, t] = (cdf <= u[:, None]).sum(axis=1)
    return PolicyBatch(actions=actions, caches=caches, probs=probs)


def backward_batch(
    policy,
    batch: PolicyBatch,
    advantages: np.ndarray,
    entropy_beta: float = 0.0,
) -> np.ndarray:
    """Gradient of the mean REINFORCE loss, laid out like ``theta``."""
    n = len(batch)
    advantages = np.asarray(advantages, dtype=np.float64)
    if advantages.shape != (n,):
        raise ValueError(f"expected {n} advantages, got {advantages.shape}")
    grad = np.zeros_like(policy.theta)
    grads = policy.views(grad)
    lstm_grads = {k: grads[f"lstm_{k}"] for k in policy.cell.params}
    rows = np.arange(n)
    dh_next = np.zeros((n, policy.hidden_size))
    dc_next = np.zeros((n, policy.hidden_size))
    for t in range(len(policy.vocab_sizes) - 1, -1, -1):
        p = batch.probs[t]
        acts = batch.actions[:, t]
        # d(-adv * log p[a]) / dlogits = adv * (p - onehot(a))
        dlogits = advantages[:, None] * p
        dlogits[rows, acts] -= advantages
        if entropy_beta > 0.0:
            # d(-beta * H) / dlogits = beta * p * (log p + H)
            log_p = np.log(np.clip(p, 1e-12, 1.0))
            h_val = -np.sum(p * log_p, axis=1, keepdims=True)
            dlogits += entropy_beta * p * (log_p + h_val)
        grads[f"head_w{t}"] += batch.caches[t].h.T @ dlogits
        grads[f"head_b{t}"] += dlogits.sum(axis=0)
        dh = dlogits @ policy.params[f"head_w{t}"].T + dh_next
        dx, dh_prev, dc_prev = lstm_backward_step(
            policy.cell, dh, dc_next, batch.caches[t], lstm_grads
        )
        if t == 0:
            grads["start"] += dx.sum(axis=0)
        else:
            np.add.at(grads[f"emb{t - 1}"], batch.actions[:, t - 1], dx)
        dh_next, dc_next = dh_prev, dc_prev
    if n > 1:
        grad /= n
    return grad


def clip_grad_norm(
    grad: np.ndarray, parts: Iterable[np.ndarray], max_norm: float
) -> float:
    """Scale ``grad`` in place so its global L2 norm <= ``max_norm``."""
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


class ReferenceTrainer:
    """``ReinforceTrainer.update_batch`` over the frozen arithmetic above.

    ``policy`` is a :class:`repro.rl.policy.SequencePolicy` used for its
    parameter layout only; ``config`` a
    :class:`repro.rl.reinforce.ReinforceConfig`.  :attr:`norms` keeps
    each update's pre-clip gradient norm.
    """

    def __init__(self, policy, config) -> None:
        self.policy = policy
        self.config = config
        self.optimizer = Adam(policy.theta.size, lr=config.learning_rate)
        self.baseline: float | None = None
        self.norms: list[float] = []

    def sample_batch(self, rng: np.random.Generator, n: int) -> PolicyBatch:
        return sample_batch(self.policy, rng, n)

    def update_batch(self, batch: PolicyBatch, rewards) -> np.ndarray:
        rewards = [float(r) for r in rewards]
        if len(rewards) != len(batch):
            raise ValueError(f"expected {len(batch)} rewards, got {len(rewards)}")
        advantages = np.empty(len(rewards))
        for i, reward in enumerate(rewards):
            if self.baseline is None:
                self.baseline = reward
            advantages[i] = reward - self.baseline
            self.baseline = (
                self.config.baseline_momentum * self.baseline
                + (1.0 - self.config.baseline_momentum) * reward
            )
        grad = backward_batch(
            self.policy, batch, advantages, entropy_beta=self.config.entropy_beta
        )
        self.norms.append(
            clip_grad_norm(grad, self.policy.views(grad).values(), self.config.grad_clip)
        )
        self.policy.theta += self.optimizer.step(grad)
        return advantages
