"""The NASBench-101 cell specification.

A :class:`ModelSpec` is an upper-triangular adjacency matrix over at
most :data:`MAX_VERTICES` vertices plus an operation label per vertex.
Construction prunes vertices that are not on any input->output path
(mirroring NASBench-101), after which the search-space validity rules
apply: at most :data:`MAX_VERTICES` vertices, at most :data:`MAX_EDGES`
edges, ``input``/``output`` labels at the endpoints, and interior
labels drawn from :data:`repro.nasbench.ops.INTERIOR_OPS`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.nasbench import graph_util
from repro.nasbench.ops import INPUT, INTERIOR_OPS, OP_INDEX, OUTPUT
from repro.utils.lru import LRUCache

__all__ = [
    "ModelSpec",
    "MAX_VERTICES",
    "MAX_EDGES",
    "InvalidSpecError",
    "prune_matrix",
    "cell_hash",
]

#: NASBench-101 limits: cells have at most 7 vertices and 9 edges.
MAX_VERTICES = 7
MAX_EDGES = 9

#: Bound on the process-wide pruned-cell -> ``spec_hash`` memo.  Every
#: pruned layout of the <=5-vertex space (3,364) fits many times over.
HASH_MEMO_CAPACITY = 32_768

#: Pruned cell content ``(matrix bytes, ops)`` -> ``spec_hash``; the ops
#: carry the vertex count, so the key pins the matrix shape.
_HASH_MEMO: LRUCache = LRUCache(HASH_MEMO_CAPACITY)

_BINARY = frozenset((0, 1))


class InvalidSpecError(ValueError):
    """Raised when a spec violates the search-space rules."""


def prune_matrix(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Pruned adjacency matrix and the kept vertex indices (ascending).

    The pruning and edge-limit rules of a well-formed spec: vertices off
    every input->output path go, and at most :data:`MAX_EDGES` edges may
    remain.  Both depend on the matrix alone, so one call serves every
    op labelling of it (the pruned ops are ``[ops[i] for i in kept]``).
    Raises :class:`InvalidSpecError` with the reason otherwise.
    """
    kept = graph_util.kept_vertices(matrix)
    if kept is None:
        raise InvalidSpecError("no input->output path")
    pruned = matrix.take(kept, axis=0).take(kept, axis=1)
    if graph_util.num_edges(pruned) > MAX_EDGES:
        raise InvalidSpecError(f"more than {MAX_EDGES} edges after pruning")
    return pruned, kept


def cell_hash(matrix: np.ndarray, ops: Sequence[str]) -> str:
    """:meth:`ModelSpec.spec_hash` of the pruned cell ``(matrix, ops)``."""
    labeling = [-1] + [OP_INDEX[op] for op in ops[1:-1]] + [-2]
    return graph_util.hash_module(matrix, labeling)


@dataclass(frozen=True)
class ModelSpec:
    """An immutable, pruned cell specification.

    Parameters
    ----------
    original_matrix, original_ops:
        The spec as proposed (e.g. decoded from controller actions).
    matrix, ops:
        The pruned spec actually built/evaluated.  Populated during
        ``__post_init__``; equal to the originals when nothing prunes.
    valid:
        False when pruning disconnects input from output or a rule is
        violated; invalid specs are never compiled and receive the
        punishment reward during search.

    An entry is an edge only if it equals 1 and a non-edge only if it
    equals 0 (so ``True`` and ``1.0`` count); a binary matrix is stored
    as int8, any other is kept as given and makes the spec invalid.
    """

    original_matrix: np.ndarray
    original_ops: tuple[str, ...]
    matrix: np.ndarray = field(init=False, repr=False)
    ops: tuple[str, ...] = field(init=False)
    valid: bool = field(init=False)
    invalid_reason: str = field(init=False, default="")
    _spec_hash: str | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        matrix = np.asarray(self.original_matrix)
        binary = _BINARY.issuperset(matrix.ravel().tolist())
        if binary and matrix.dtype != np.int8:
            matrix = matrix.astype(np.int8)
        object.__setattr__(self, "original_matrix", matrix)
        object.__setattr__(self, "original_ops", tuple(self.original_ops))

        reason = self._structural_problem(matrix, self.original_ops, binary)
        if reason is not None:
            self._mark_invalid(matrix, reason)
            return

        try:
            pruned_matrix, kept = prune_matrix(matrix)
        except InvalidSpecError as err:
            self._mark_invalid(matrix, str(err))
            return
        object.__setattr__(self, "matrix", pruned_matrix)
        object.__setattr__(self, "ops", tuple(self.original_ops[i] for i in kept))
        object.__setattr__(self, "valid", True)

    # ------------------------------------------------------------------
    @staticmethod
    def _structural_problem(
        matrix: np.ndarray, ops: tuple[str, ...], binary: bool
    ) -> str | None:
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            return "adjacency matrix must be square"
        n = matrix.shape[0]
        if n < 2:
            return "need at least input and output vertices"
        if n > MAX_VERTICES:
            return f"more than {MAX_VERTICES} vertices"
        if len(ops) != n:
            return "ops length must match vertex count"
        if not graph_util.is_upper_triangular(matrix):
            return "adjacency matrix must be strictly upper-triangular"
        if not binary:
            return "adjacency matrix must be binary"
        if ops[0] != INPUT:
            return "first op must be 'input'"
        if ops[-1] != OUTPUT:
            return "last op must be 'output'"
        for op in ops[1:-1]:
            if op not in INTERIOR_OPS:
                return f"unknown interior op {op!r}"
        return None

    def _mark_invalid(self, matrix: np.ndarray, reason: str) -> None:
        object.__setattr__(self, "matrix", np.zeros((0, 0), dtype=np.int8))
        object.__setattr__(self, "ops", ())
        object.__setattr__(self, "valid", False)
        object.__setattr__(self, "invalid_reason", reason)

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Vertex count of the pruned cell (0 when invalid)."""
        return self.matrix.shape[0] if self.valid else 0

    @property
    def num_edges(self) -> int:
        """Edge count of the pruned cell (0 when invalid)."""
        return graph_util.num_edges(self.matrix) if self.valid else 0

    def op_counts(self) -> dict[str, int]:
        """Count of each interior op in the pruned cell."""
        counts = {op: 0 for op in INTERIOR_OPS}
        for op in self.ops[1:-1]:
            counts[op] += 1
        return counts

    def depth(self) -> int:
        """Vertices on the longest input->output path (>=2 when valid)."""
        if not self.valid:
            return 0
        return graph_util.longest_path_length(self.matrix)

    def has_output_skip(self) -> bool:
        """True when the input vertex connects directly to the output."""
        return bool(self.valid and self.matrix[0, -1])

    def spec_hash(self) -> str:
        """Isomorphism-invariant fingerprint of the pruned cell.

        Labels follow NASBench-101: ``-1`` for input, ``-2`` for output
        and the canonical op index for interior vertices, so the hash
        matches across any vertex reordering of the same cell.  A spec
        computes its hash once, through a process-wide memo keyed by the
        pruned cell's content, and remembers it.
        """
        spec_hash = self._spec_hash
        if spec_hash is None:
            if not self.valid:
                raise InvalidSpecError(
                    f"invalid spec has no hash: {self.invalid_reason}"
                )
            content = (self.matrix.tobytes(), self.ops)
            spec_hash = _HASH_MEMO.get(content)
            if spec_hash is None:
                spec_hash = _HASH_MEMO[content] = cell_hash(self.matrix, self.ops)
            object.__setattr__(self, "_spec_hash", spec_hash)
        return spec_hash

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (original, unpruned spec)."""
        return {
            "matrix": self.original_matrix.tolist(),
            "ops": list(self.original_ops),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ModelSpec":
        return cls(np.asarray(data["matrix"]), tuple(data["ops"]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModelSpec):
            return NotImplemented
        if self.valid != other.valid:
            return False
        if not self.valid:
            return (
                self.original_ops == other.original_ops
                and np.array_equal(self.original_matrix, other.original_matrix)
            )
        return self.ops == other.ops and np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        if self.valid:
            return hash((self.ops, self.matrix.tobytes()))
        return hash((self.original_ops, self.original_matrix.tobytes()))

    def __str__(self) -> str:
        if not self.valid:
            return f"ModelSpec(invalid: {self.invalid_reason})"
        edges = [
            (i, j)
            for i in range(self.num_vertices)
            for j in range(self.num_vertices)
            if self.matrix[i, j]
        ]
        return f"ModelSpec(V={self.num_vertices}, E={edges}, ops={list(self.ops)})"
