"""The joint CNN x accelerator search space (paper Eq. 1).

``S = Onn1 x Onn2 x ... x Ohw1 x Ohw2 x ...`` — the controller emits
one categorical action per option; the first block of tokens encodes
the cell (edges + ops, see :class:`repro.nasbench.CellEncoding`), the
second block the accelerator parameters
(:class:`repro.accelerator.AcceleratorSpace`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.space import AcceleratorSpace
from repro.nasbench.encoding import CellEncoding
from repro.nasbench.model_spec import ModelSpec

__all__ = ["JointSearchSpace"]


@dataclass
class JointSearchSpace:
    """Concatenation of the CNN and accelerator action spaces."""

    cell_encoding: CellEncoding = field(default_factory=CellEncoding)
    accelerator_space: AcceleratorSpace = field(default_factory=AcceleratorSpace)

    # ------------------------------------------------------------------
    @property
    def num_cnn_tokens(self) -> int:
        return self.cell_encoding.num_tokens

    @property
    def num_hw_tokens(self) -> int:
        return self.accelerator_space.num_tokens

    @property
    def num_tokens(self) -> int:
        return self.num_cnn_tokens + self.num_hw_tokens

    @property
    def vocab_sizes(self) -> list[int]:
        """Per-token choice counts: CNN tokens then HW tokens."""
        return self.cell_encoding.vocab_sizes + self.accelerator_space.vocab_sizes

    @property
    def cnn_vocab_sizes(self) -> list[int]:
        return self.cell_encoding.vocab_sizes

    @property
    def hw_vocab_sizes(self) -> list[int]:
        return self.accelerator_space.vocab_sizes

    def raw_size(self) -> int:
        """Product of all vocab sizes (pre-dedup upper bound on |S|)."""
        return self.cell_encoding.space_size * self.accelerator_space.size

    # ------------------------------------------------------------------
    def split(self, actions: Sequence[int]) -> tuple[list[int], list[int]]:
        """Split a joint action vector into (CNN actions, HW actions)."""
        actions = list(actions)
        if len(actions) != self.num_tokens:
            raise ValueError(
                f"expected {self.num_tokens} actions, got {len(actions)}"
            )
        return actions[: self.num_cnn_tokens], actions[self.num_cnn_tokens:]

    def decode(self, actions: Sequence[int]) -> tuple[ModelSpec, AcceleratorConfig]:
        """Decode a joint action vector into a (spec, config) pair."""
        cnn_actions, hw_actions = self.split(actions)
        return (
            self.cell_encoding.decode(cnn_actions),
            self.accelerator_space.decode(hw_actions),
        )

    def encode(self, spec: ModelSpec, config: AcceleratorConfig) -> list[int]:
        """Joint action vector reproducing ``(spec, config)``."""
        return self.cell_encoding.encode(spec) + self.accelerator_space.encode(config)

    def random_actions(self, rng: np.random.Generator) -> list[int]:
        return [int(rng.integers(0, v)) for v in self.vocab_sizes]
