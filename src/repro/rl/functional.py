"""Numerically careful primitives for the numpy RL stack."""

from __future__ import annotations

import numpy as np

__all__ = ["softmax", "log_softmax", "sigmoid", "xavier_uniform", "entropy"]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log-softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable logistic function: ``exp`` only ever sees ``-|x|``."""
    e = np.exp(-np.abs(x))
    denominator = 1.0 + e
    return np.where(x >= 0, 1.0 / denominator, e / denominator)


def entropy(probs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shannon entropy (nats) of probability vectors."""
    safe = np.clip(probs, 1e-12, 1.0)
    return -np.sum(safe * np.log(safe), axis=axis)


def xavier_uniform(
    rng: np.random.Generator, shape: tuple[int, ...], gain: float = 1.0
) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    fan_in, fan_out = shape[0], shape[-1]
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)
