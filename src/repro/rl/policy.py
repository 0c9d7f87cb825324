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

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.rl.functional import softmax, xavier_uniform
from repro.rl.lstm import LSTMCache, LSTMCell, LSTMState

__all__ = ["PolicyBatch", "SequencePolicy"]


@dataclass
class PolicyBatch:
    """``n`` rollouts sampled from one set of policy parameters.

    What :meth:`SequencePolicy.backward_batch` reads, and nothing else:
    the actions, and per token ``t`` the LSTM cache (whose ``h`` feeds
    the head) and the head's probabilities.  Every per-token array
    carries the rollout batch as its leading dimension, so one backward
    pass covers every rollout at once.
    """

    actions: np.ndarray                                  # (n, T) int64
    caches: list[LSTMCache] = field(repr=False, default_factory=list)
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
        per-token lists keep their length; the rollout dimension — the
        *leading* axis of every array inside them — is sliced.  Every
        rollout in sample order is the batch itself, uncopied.
        """
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
        # Where each named parameter sits in theta, in theta's order:
        # (name, start, stop, shape), computed once.
        self._layout = []
        offset = 0
        for name, value in arrays.items():
            self._layout.append((name, offset, offset + value.size, value.shape))
            offset += value.size
        # Token positions grouped by vocabulary size, for backward_batch.
        self._tokens_by_vocab = [
            [t for t, size in enumerate(self.vocab_sizes) if size == vocab]
            for vocab in sorted(set(self.vocab_sizes))
        ]
        self.theta = np.concatenate([v.ravel() for v in arrays.values()])
        self.params = self.views(self.theta)
        self.cell.params = {k: self.params[f"lstm_{k}"] for k in self.cell.params}

    # ------------------------------------------------------------------
    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into ``vector``, laid out like :attr:`theta`."""
        return {
            name: vector[start:stop].reshape(shape)
            for name, start, stop, shape in self._layout
        }

    def pack(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        """One vector laid out like :attr:`theta` from named arrays.

        The parameter set and every shape must match -- arrays from a
        differently-shaped policy (other vocab sizes, hidden or
        embedding width) are rejected rather than silently truncated.
        """
        names = {name for name, *_ in self._layout}
        if set(arrays) != names:
            missing = sorted(names - set(arrays))
            extra = sorted(set(arrays) - names)
            raise ValueError(
                f"policy checkpoint mismatch: missing {missing}, unexpected {extra}"
            )
        parts = []
        for key, _, _, shape in self._layout:
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

        Each token is drawn with numpy's own ``Generator.choice(vocab,
        p=p)`` algorithm (normalized CDF, one uniform per rollout,
        right-side search), vectorized over rollouts.  All ``T * n``
        uniforms come from one ``rng.random((T, n))``: the generator
        fills it in C order, so token ``t`` reads the ``n`` doubles a
        separate ``rng.random(n)`` per token would return.  A batch of
        one consumes the per-point controller's RNG stream, which the
        batch-1 goldens (``tests/data/ask_tell_goldens.*``) pin, and
        every batch size draws the same token from the same uniform.
        """
        if n < 1:
            raise ValueError(f"batch size must be positive, got {n}")
        state = LSTMState.zeros(n, self.hidden_size)
        actions = np.empty((n, len(self.vocab_sizes)), dtype=np.int64)
        uniforms = rng.random((len(self.vocab_sizes), n))
        caches: list[LSTMCache] = []
        probs: list[np.ndarray] = []
        for t in range(len(self.vocab_sizes)):
            if t == 0:
                x = np.repeat(self.params["start"][None, :], n, axis=0)
            else:
                x = self.params[f"emb{t - 1}"][actions[:, t - 1]]
            state, cache = self.cell.forward(x, state)
            caches.append(cache)
            logits = (
                np.dot(state.h, self.params[f"head_w{t}"]) + self.params[f"head_b{t}"]
            )
            p = softmax(logits, axis=-1)
            probs.append(p)
            cdf = p.cumsum(axis=1)
            cdf /= cdf[:, -1:]
            actions[:, t] = (cdf <= uniforms[t][:, None]).sum(axis=1)
        return PolicyBatch(actions=actions, caches=caches, probs=probs)

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

        The result is pinned bit for bit
        (``tests/rl/test_reference_controller.py``): each weight
        gradient is accumulated one token at a time, in reverse token
        order, and each product is one ``np.dot`` over the rollouts.
        """
        n = len(batch)
        advantages = np.asarray(advantages, dtype=np.float64)
        if advantages.shape != (n,):
            raise ValueError(f"expected {n} advantages, got {advantages.shape}")
        grad = np.zeros_like(self.theta)
        grads = self.views(grad)
        lstm_grads = {k: grads[f"lstm_{k}"] for k in self.cell.params}
        rows = np.arange(n)
        # The logit gradients of all tokens of one vocabulary size at
        # once, as a (tokens, n, vocab) stack: each term is elementwise
        # or sums over one token's vocabulary, so stacking moves no bit.
        token_dlogits: dict[int, np.ndarray] = {}
        for tokens in self._tokens_by_vocab:
            p = np.stack([batch.probs[t] for t in tokens])
            # d(-adv * log p[a]) / dlogits = adv * (p - onehot(a))
            dlogits = advantages[:, None] * p
            taken = (np.arange(len(tokens))[:, None], rows, batch.actions[:, tokens].T)
            dlogits[taken] -= advantages
            if entropy_beta > 0.0:
                # d(-beta * H) / dlogits = beta * p * (log p + H); a
                # softmax output never exceeds 1, so only the floor binds.
                log_p = np.log(np.maximum(p, 1e-12))
                h_val = -(p * log_p).sum(axis=2, keepdims=True)
                dlogits += entropy_beta * p * (log_p + h_val)
            token_dlogits.update(zip(tokens, dlogits))
        dh_next = np.zeros((n, self.hidden_size))
        dc_next = np.zeros((n, self.hidden_size))
        for t in range(len(self.vocab_sizes) - 1, -1, -1):
            dlogits = token_dlogits[t]
            grads[f"head_w{t}"] += np.dot(batch.caches[t].h.T, dlogits)
            grads[f"head_b{t}"] += dlogits.sum(axis=0)
            dh = np.dot(dlogits, self.params[f"head_w{t}"].T) + dh_next
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
