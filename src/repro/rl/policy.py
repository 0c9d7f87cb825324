"""The sequential controller policy (Zoph & Le style, numpy).

One categorical decision per token: the shared LSTM cell consumes the
embedding of the previous decision and a per-token linear head turns
the hidden state into logits over that token's vocabulary.  Rollouts
are sampled and backpropagated in batches; a batch of one is the
paper's per-point controller.  Every trainable array, the LSTM cell's
included, is a named view into one float64 vector
:attr:`SequencePolicy.theta`, so one optimizer step moves them all.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.rl.functional import entropy, log_softmax, softmax, xavier_uniform
from repro.rl.lstm import LSTMCache, LSTMCell, LSTMState

__all__ = ["PolicyBatch", "SequencePolicy"]


@dataclass
class PolicyBatch:
    """``n`` rollouts sampled from one set of policy parameters.

    All per-token arrays carry the rollout batch as their leading
    dimension, so one :meth:`SequencePolicy.backward_batch` pass
    backpropagates every rollout at once.
    """

    actions: np.ndarray                                  # (n, T) int64
    log_probs: np.ndarray                                # (n,)
    entropies: np.ndarray                                # (n,)
    caches: list[LSTMCache] = field(repr=False, default_factory=list)
    hiddens: list[np.ndarray] = field(repr=False, default_factory=list)
    probs: list[np.ndarray] = field(repr=False, default_factory=list)

    def __len__(self) -> int:
        return len(self.actions)

    def actions_list(self, i: int) -> list[int]:
        """Rollout ``i``'s action sequence as a plain list."""
        return [int(a) for a in self.actions[i]]

    def subset(self, indices: Sequence[int]) -> "PolicyBatch":
        """The batch restricted to rollouts ``indices`` (in that order).

        Used by the two-tier search mode: a strategy asks for an
        inflated rollout batch, the surrogate tier discards most of it,
        and only the surviving rollouts are REINFORCE-updated.  The
        per-token lists (``caches``/``hiddens``/``probs``, one entry
        per token ``t``) keep their length; the rollout dimension —
        the *leading* axis of every array inside them — is sliced.
        """
        indices = list(indices)
        return PolicyBatch(
            actions=self.actions[indices],
            log_probs=self.log_probs[indices],
            entropies=self.entropies[indices],
            caches=[
                LSTMCache(
                    x=c.x[indices],
                    h_prev=c.h_prev[indices],
                    c_prev=c.c_prev[indices],
                    i=c.i[indices],
                    f=c.f[indices],
                    g=c.g[indices],
                    o=c.o[indices],
                    c=c.c[indices],
                )
                for c in self.caches
            ],
            hiddens=[h[indices] for h in self.hiddens],
            probs=[p[indices] for p in self.probs],
        )


class SequencePolicy:
    """LSTM + per-token heads over a mixed-vocabulary action sequence."""

    def __init__(
        self,
        vocab_sizes: list[int],
        hidden_size: int = 64,
        embedding_size: int = 32,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if not vocab_sizes:
            raise ValueError("policy needs at least one token")
        for name, size in (("hidden_size", hidden_size), ("embedding_size", embedding_size)):
            if size < 1:
                raise ValueError(f"{name} must be >= 1, got {size}")
        rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
        self.vocab_sizes = list(vocab_sizes)
        self.hidden_size = hidden_size
        self.embedding_size = embedding_size
        self.cell = LSTMCell(embedding_size, hidden_size, rng)
        arrays = {f"lstm_{k}": v for k, v in self.cell.params.items()}
        # Learned start-of-sequence input.
        arrays["start"] = 0.1 * rng.standard_normal(embedding_size)
        for t, vocab in enumerate(self.vocab_sizes):
            arrays[f"head_w{t}"] = xavier_uniform(rng, (hidden_size, vocab))
            arrays[f"head_b{t}"] = np.zeros(vocab)
            if t < len(self.vocab_sizes) - 1:
                # Embedding of token t's decision feeds step t+1.
                arrays[f"emb{t}"] = 0.1 * rng.standard_normal(
                    (vocab, embedding_size)
                )
        self._shapes = {k: v.shape for k, v in arrays.items()}
        self.theta = np.concatenate([v.ravel() for v in arrays.values()])
        self.params = self.views(self.theta)
        self.cell.params = {k: self.params[f"lstm_{k}"] for k in self.cell.params}

    # ------------------------------------------------------------------
    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into ``vector``, laid out like :attr:`theta`."""
        out = {}
        offset = 0
        for name, shape in self._shapes.items():
            size = math.prod(shape)
            out[name] = vector[offset: offset + size].reshape(shape)
            offset += size
        return out

    def pack(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        """One vector laid out like :attr:`theta` from named arrays.

        The parameter set and every shape must match -- arrays from a
        differently-shaped policy (other vocab sizes, hidden or
        embedding width) are rejected rather than silently truncated.
        """
        if set(arrays) != set(self._shapes):
            missing = sorted(set(self._shapes) - set(arrays))
            extra = sorted(set(arrays) - set(self._shapes))
            raise ValueError(
                f"policy checkpoint mismatch: missing {missing}, unexpected {extra}"
            )
        parts = []
        for key, shape in self._shapes.items():
            value = np.asarray(arrays[key], dtype=np.float64)
            if value.shape != shape:
                raise ValueError(
                    f"policy parameter {key!r} has shape {shape}, "
                    f"checkpoint has {value.shape}"
                )
            parts.append(value.ravel())
        return np.concatenate(parts)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Per-parameter copy of :attr:`theta` (LSTM + embeddings + heads)."""
        return self.views(self.theta.copy())

    def load_state_dict(self, params: dict[str, np.ndarray]) -> None:
        """Restore weights saved by :meth:`state_dict`, in place."""
        self.theta[...] = self.pack(params)

    # ------------------------------------------------------------------
    def sample_batch(self, rng: np.random.Generator, n: int) -> PolicyBatch:
        """Sample ``n`` rollouts from the current parameters in one pass.

        The LSTM/head matmuls run once per token with the rollout batch
        as the leading dimension instead of once per (token, rollout) —
        the forward cost of a batch approaches that of a single rollout.

        At ``n == 1`` each token is one ``rng.choice(vocab, p=p)``
        draw: the per-point controller's RNG stream, which the batch-1
        goldens (``tests/data/ask_tell_goldens.*``) pin.  At ``n > 1``
        the categorical draws use one inverse-CDF lookup per token
        (``n`` uniforms at once), a different -- but equally valid --
        consumption of the stream.
        """
        if n < 1:
            raise ValueError(f"batch size must be positive, got {n}")
        num_tokens = len(self.vocab_sizes)
        state = LSTMState.zeros(n, self.hidden_size)
        actions = np.empty((n, num_tokens), dtype=np.int64)
        log_probs = np.zeros(n)
        entropies = np.zeros(n)
        caches: list[LSTMCache] = []
        hiddens: list[np.ndarray] = []
        probs: list[np.ndarray] = []
        prev: np.ndarray | None = None
        rows = np.arange(n)
        for t, vocab in enumerate(self.vocab_sizes):
            if t == 0:
                x = np.repeat(self.params["start"][None, :], n, axis=0)
            else:
                x = self.params[f"emb{t - 1}"][prev]
            state, cache = self.cell.forward(x, state)
            caches.append(cache)
            hiddens.append(state.h.copy())
            logits = state.h @ self.params[f"head_w{t}"] + self.params[f"head_b{t}"]
            p = softmax(logits, axis=-1)
            probs.append(p)
            if n == 1:
                acts = np.array([rng.choice(vocab, p=p[0])])
            else:
                u = rng.random(n)
                cdf = np.cumsum(p, axis=1)
                acts = np.minimum(
                    (cdf < u[:, None] * cdf[:, -1:]).sum(axis=1), vocab - 1
                )
            log_probs += log_softmax(logits, axis=-1)[rows, acts]
            entropies += entropy(p, axis=-1)
            actions[:, t] = acts
            prev = acts
        return PolicyBatch(
            actions=actions,
            log_probs=log_probs,
            entropies=entropies,
            caches=caches,
            hiddens=hiddens,
            probs=probs,
        )

    # ------------------------------------------------------------------
    def backward_batch(
        self,
        batch: PolicyBatch,
        advantages: np.ndarray,
        entropy_beta: float = 0.0,
    ) -> np.ndarray:
        """Gradient of the mean REINFORCE loss, laid out like :attr:`theta`.

        The loss of one rollout is ``-(advantage * log_prob + beta *
        entropy)``; minimizing it is REINFORCE ascent on ``advantage *
        log pi`` plus entropy regularization.  One reversed token sweep
        backpropagates every rollout of ``batch`` together, and the
        result is the mean over rollouts.
        """
        n = len(batch)
        advantages = np.asarray(advantages, dtype=np.float64)
        if advantages.shape != (n,):
            raise ValueError(f"expected {n} advantages, got {advantages.shape}")
        grad = np.zeros_like(self.theta)
        grads = self.views(grad)
        lstm_grads = {k: grads[f"lstm_{k}"] for k in self.cell.params}
        rows = np.arange(n)
        dh_next = np.zeros((n, self.hidden_size))
        dc_next = np.zeros((n, self.hidden_size))
        for t in range(len(self.vocab_sizes) - 1, -1, -1):
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
            grads[f"head_w{t}"] += batch.hiddens[t].T @ dlogits
            grads[f"head_b{t}"] += dlogits.sum(axis=0)
            dh = dlogits @ self.params[f"head_w{t}"].T + dh_next
            dx, dh_prev, dc_prev = self.cell.backward_step(
                dh, dc_next, batch.caches[t], lstm_grads
            )
            if t == 0:
                grads["start"] += dx.sum(axis=0)
            else:
                np.add.at(grads[f"emb{t - 1}"], batch.actions[:, t - 1], dx)
            dh_next, dc_next = dh_prev, dc_prev
        if n > 1:
            grad /= n
        return grad
