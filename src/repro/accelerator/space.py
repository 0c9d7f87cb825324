"""The full accelerator design space (8640 configurations).

Provides index <-> config bijections, controller token decoding, and
column views (one numpy array per parameter across the whole space)
that the vectorized area/latency paths consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.accelerator.config import PARAMETER_VALUES, AcceleratorConfig

__all__ = ["AcceleratorSpace"]


@dataclass
class AcceleratorSpace:
    """Mixed-radix enumeration of every accelerator configuration.

    The index is little-endian in parameter order: the first parameter
    (``filter_par``) varies fastest.
    """

    parameters: dict[str, tuple] = field(
        default_factory=lambda: dict(PARAMETER_VALUES)
    )

    #: The frozen config dataclass this space decodes into.  Subclasses
    #: (e.g. the tiled-GEMM space) override it with their own config
    #: type; it must accept one keyword per parameter name and expose
    #: each as an attribute plus ``to_dict()``.
    config_class = AcceleratorConfig

    def __post_init__(self) -> None:
        self._names = list(self.parameters)
        self._radices = [len(self.parameters[n]) for n in self._names]
        strides = []
        stride = 1
        for radix in self._radices:
            strides.append(stride)
            stride *= radix
        self._strides = strides
        # Flat index -> the one config object for that point.
        # Interning makes repeat decodes of the same configuration
        # return the *same* (frozen, immutable) object instead of
        # rebuilding one per decode.
        self._interned: dict[int, object] = {}

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        size = 1
        for r in self._radices:
            size *= r
        return size

    @property
    def vocab_sizes(self) -> list[int]:
        """Choices per controller token (one token per parameter)."""
        return list(self._radices)

    @property
    def num_tokens(self) -> int:
        return len(self._names)

    @property
    def names(self) -> list[str]:
        return list(self._names)

    # ------------------------------------------------------------------
    def config_at(self, index: int) -> AcceleratorConfig:
        """Configuration at a flat index in ``[0, size)`` (interned)."""
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} out of range for size {self.size}")
        index = int(index)
        config = self._interned.get(index)
        if config is None:
            values = {}
            remainder = index
            for name, radix in zip(self._names, self._radices):
                values[name] = self.parameters[name][remainder % radix]
                remainder //= radix
            config = self.config_class(**values)
            self._interned[index] = config
        return config

    def index_of(self, config: AcceleratorConfig) -> int:
        """Flat index of ``config`` (inverse of :meth:`config_at`)."""
        index = 0
        stride = 1
        for name, radix in zip(self._names, self._radices):
            value = getattr(config, name)
            index += self.parameters[name].index(value) * stride
            stride *= radix
        return index

    def index_of_actions(self, actions: Sequence[int]) -> int:
        """Flat index selected by one controller action per token.

        Actions *are* per-parameter value indices, so the flat index is
        just their mixed-radix composition — no config (or dict) is
        ever materialized:
        ``decode(a) == config_at(index_of_actions(a))`` always holds.
        """
        actions = list(actions)
        if len(actions) != self.num_tokens:
            raise ValueError(f"expected {self.num_tokens} actions, got {len(actions)}")
        index = 0
        for name, radix, stride, action in zip(
            self._names, self._radices, self._strides, actions
        ):
            if not 0 <= action < radix:
                raise ValueError(f"action {action} out of range for {name}")
            index += int(action) * stride
        return index

    def decode(self, actions: Sequence[int]) -> AcceleratorConfig:
        """Configuration selected by one controller action per token."""
        return self.config_at(self.index_of_actions(actions))

    def encode(self, config: AcceleratorConfig) -> list[int]:
        """Controller actions reproducing ``config``."""
        return [
            self.parameters[name].index(getattr(config, name))
            for name in self._names
        ]

    def __iter__(self) -> Iterator[AcceleratorConfig]:
        for i in range(self.size):
            yield self.config_at(i)

    def random_config(self, rng: np.random.Generator) -> AcceleratorConfig:
        return self.config_at(int(rng.integers(0, self.size)))

    # ------------------------------------------------------------------
    def columns(self) -> dict[str, np.ndarray]:
        """One array per parameter, aligned with flat indices.

        ``columns()['pixel_par'][i]`` equals
        ``config_at(i).pixel_par`` — the layout the batch area/latency
        models vectorize over.
        """
        index = np.arange(self.size)
        out: dict[str, np.ndarray] = {}
        remainder = index
        for name, radix in zip(self._names, self._radices):
            values = np.asarray(self.parameters[name])
            out[name] = values[remainder % radix]
            remainder = remainder // radix
        return out

    def columns_at(self, indices) -> dict[str, np.ndarray]:
        """Column views at the given flat indices only.

        Value- and dtype-identical to ``{k: v[indices] for k, v in
        columns().items()}`` without materializing the full space —
        the decode that keeps surrogate fits affordable on spaces too
        large to enumerate.
        """
        indices = np.asarray(indices, dtype=np.int64)
        out: dict[str, np.ndarray] = {}
        remainder = indices
        for name, radix in zip(self._names, self._radices):
            values = np.asarray(self.parameters[name])
            out[name] = values[remainder % radix]
            remainder = remainder // radix
        return out
