"""Controller action-space encoding for cell specs.

The RL controller emits one categorical decision per token.  For a
cell space with ``max_vertices`` vertices the token sequence is:

* one binary decision per potential edge ``(i, j), i < j`` in row-major
  order — ``C(max_vertices, 2)`` tokens;
* one 3-way decision per interior vertex — ``max_vertices - 2`` tokens.

Decoding never fails: specs that violate the search-space rules (too
many edges, disconnected) simply come back with ``valid == False`` and
the search assigns them the punishment reward, as in the paper.

Decoding is interned: every decode of one action vector returns the
same spec object, so a converging controller's repeat proposals are
pruned, validated and hashed once (see :meth:`CellEncoding.decode`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.nasbench.model_spec import MAX_VERTICES, ModelSpec
from repro.nasbench.ops import INPUT, INTERIOR_OPS, OP_INDEX, OUTPUT
from repro.utils.lru import LRUCache

__all__ = ["CellEncoding"]

#: Bound on each encoding's action-vector -> spec table.  The whole
#: 5-vertex action space (27,648 vectors) fits, so a micro-space study
#: never evicts; the 7-vertex space (2**21 * 3**5 vectors) cannot.
DECODE_CACHE_CAPACITY = 32_768


@dataclass(frozen=True)
class CellEncoding:
    """Bijection between controller action vectors and cell specs."""

    max_vertices: int = MAX_VERTICES

    def __post_init__(self) -> None:
        if not 2 <= self.max_vertices <= MAX_VERTICES:
            raise ValueError(
                f"max_vertices must be in [2, {MAX_VERTICES}], got {self.max_vertices}"
            )
        n = self.max_vertices
        # Row-major (i, j), i < j: the edge tokens' order.
        edge_index = np.triu_indices(n, 1)
        num_edges = len(edge_index[0])
        vocab_sizes = (2,) * num_edges + (len(INTERIOR_OPS),) * (n - 2)
        object.__setattr__(self, "_edge_index", edge_index)
        object.__setattr__(self, "_num_edge_tokens", num_edges)
        object.__setattr__(self, "_vocab_sizes", vocab_sizes)
        object.__setattr__(self, "_interned", LRUCache(DECODE_CACHE_CAPACITY))

    # ------------------------------------------------------------------
    @property
    def edge_pairs(self) -> list[tuple[int, int]]:
        """Potential edges in decoding order."""
        rows, cols = self._edge_index
        return list(zip(rows.tolist(), cols.tolist()))

    @property
    def num_edge_tokens(self) -> int:
        return self._num_edge_tokens

    @property
    def num_op_tokens(self) -> int:
        return self.max_vertices - 2

    @property
    def num_tokens(self) -> int:
        return len(self._vocab_sizes)

    @property
    def vocab_sizes(self) -> list[int]:
        """Number of choices per token (2 for edges, 3 for ops)."""
        return list(self._vocab_sizes)

    @property
    def space_size(self) -> int:
        """Raw (pre-dedup) size of the action space."""
        size = 1
        for v in self.vocab_sizes:
            size *= v
        return size

    # ------------------------------------------------------------------
    def decode(self, actions: Sequence[int]) -> ModelSpec:
        """Turn an action vector into a (possibly invalid) spec.

        The vector is checked first, so a repeat refuses exactly what a
        first decode refuses.  Then it is interned, as
        :meth:`repro.accelerator.AcceleratorSpace.config_at` interns
        configs: every decode of one vector returns the same spec, and
        the spec's arrays are read-only, because every proposal,
        archive entry and ledger row of that vector shares them.
        """
        key = tuple(actions)
        vocab_sizes = self._vocab_sizes
        if len(key) != len(vocab_sizes):
            raise ValueError(f"expected {len(vocab_sizes)} actions, got {len(key)}")
        for a, vocab in zip(key, vocab_sizes):
            if not 0 <= a < vocab:
                raise ValueError(f"action {a} out of range for vocab {vocab}")
        spec = self._interned.get(key)
        if spec is None:
            n = self.max_vertices
            split = self._num_edge_tokens
            matrix = np.zeros((n, n), dtype=np.int8)
            matrix[self._edge_index] = key[:split]
            ops = (INPUT, *(INTERIOR_OPS[c] for c in key[split:]), OUTPUT)
            spec = ModelSpec(matrix, ops)
            spec.original_matrix.flags.writeable = False
            spec.matrix.flags.writeable = False
            self._interned[key] = spec
        return spec

    def encode(self, spec: ModelSpec) -> list[int]:
        """Action vector for ``spec`` (embedded in the first vertices).

        The pruned spec's vertices map onto vertices
        ``0..V-2`` plus the final output vertex; interior vertices
        without a counterpart default to op 0 and stay disconnected, so
        ``decode(encode(spec))`` prunes back to an isomorphic cell.
        """
        if not spec.valid:
            raise ValueError("cannot encode an invalid spec")
        v = spec.num_vertices
        if v > self.max_vertices:
            raise ValueError(
                f"spec has {v} vertices but encoding allows {self.max_vertices}"
            )
        n = self.max_vertices
        # Map spec vertex k -> encoded vertex (output goes last).
        position = {k: k for k in range(v - 1)}
        position[v - 1] = n - 1
        edge_bits = {pair: 0 for pair in self.edge_pairs}
        for i in range(v):
            for j in range(i + 1, v):
                if spec.matrix[i, j]:
                    edge_bits[(position[i], position[j])] = 1
        op_choices = [0] * self.num_op_tokens
        for k in range(1, v - 1):
            op_choices[position[k] - 1] = OP_INDEX[spec.ops[k]]
        return [edge_bits[pair] for pair in self.edge_pairs] + op_choices

    def random_actions(self, rng: np.random.Generator) -> list[int]:
        """Uniformly random action vector."""
        return [int(rng.integers(0, v)) for v in self.vocab_sizes]
