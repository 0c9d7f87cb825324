"""Cell databases: the offline stand-in for NASBench-101's table.

Two constructions are provided:

* :meth:`CellDatabase.nasbench_micro` — the **exhaustive** space of all
  unique cells with at most 5 vertices (deduplicated by the
  isomorphism-invariant hash).  Because it is exhaustive, search and
  enumeration cover exactly the same space, which is what makes the
  Fig. 4/5/6 comparisons between discovered points and the true Pareto
  frontier meaningful.
* :meth:`CellDatabase.nasbench_lite` — micro plus a seeded sample of
  unique 6/7-vertex cells, for larger-scale experiments.

Every record stores the spec, its features and its surrogate CIFAR-10
statistics, mirroring the fields the paper reads from NASBench.
:meth:`CellDatabase.to_columns` and :meth:`CellDatabase.from_columns`
turn the records into named arrays and back, bit for bit, which is how
a table is stored on disk (:func:`repro.experiments.common.load_bundle`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields

import numpy as np

from repro.nasbench.model_spec import (
    MAX_VERTICES,
    InvalidSpecError,
    ModelSpec,
    cell_hash,
    prune_matrix,
)
from repro.nasbench.ops import INPUT, INTERIOR_OPS, OUTPUT
from repro.nasbench.surrogate import CellFeatures, Cifar10Surrogate, extract_features
from repro.utils.rng import make_rng

__all__ = ["CellRecord", "CellDatabase", "enumerate_unique_cells", "sample_unique_cells"]


#: The statistics of a :class:`CellRecord`, in field order.
_STATISTICS = ("validation_accuracy", "test_accuracy", "training_seconds")
#: The :class:`CellFeatures` fields, in order.
_FEATURES = tuple(f.name for f in fields(CellFeatures))


@dataclass(frozen=True)
class CellRecord:
    """One database row: a unique cell and its precomputed statistics."""

    spec: ModelSpec
    spec_hash: str
    features: CellFeatures
    validation_accuracy: float
    test_accuracy: float
    training_seconds: float


def _all_matrices(num_vertices: int):
    """Yield every strictly-upper-triangular binary matrix."""
    pairs = [(i, j) for i in range(num_vertices) for j in range(i + 1, num_vertices)]
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        matrix = np.zeros((num_vertices, num_vertices), dtype=np.int8)
        for (i, j), bit in zip(pairs, bits):
            matrix[i, j] = bit
        yield matrix


def enumerate_unique_cells(max_vertices: int) -> list[ModelSpec]:
    """Exhaustively enumerate unique valid cells with <= ``max_vertices``.

    Feasible up to 5 vertices (tens of thousands of raw candidates);
    raises for larger limits where sampling should be used instead.
    The list holds the first-seen spec of every ``spec_hash`` in
    (vertex count, matrix, ops) order, with its original matrix and ops.
    The order is pinned by ``tests/data/space_goldens.json``: a stored
    bundle (:func:`repro.experiments.common.load_bundle`) keeps its
    records in this order, and its latency rows and Pareto front's cell
    indices refer to them by position.

    Each matrix is pruned once (validity depends on the matrix alone),
    each distinct pruned cell is hashed once, and a :class:`ModelSpec`
    is built only for an unseen hash.
    """
    if max_vertices > 5:
        raise ValueError(
            "exhaustive enumeration is only supported up to 5 vertices; "
            "use sample_unique_cells for 6-7 vertex cells"
        )
    seen: dict[str, ModelSpec] = {}
    hashes: dict[tuple[bytes, tuple[str, ...]], str] = {}
    for num_vertices in range(2, max_vertices + 1):
        op_products = itertools.product(INTERIOR_OPS, repeat=num_vertices - 2)
        op_choices = [(INPUT, *interior, OUTPUT) for interior in op_products]
        for matrix in _all_matrices(num_vertices):
            try:
                pruned, kept = prune_matrix(matrix)
            except InvalidSpecError:
                continue
            pruned_bytes = pruned.tobytes()
            for ops in op_choices:
                pruned_ops = tuple(ops[i] for i in kept)
                key = (pruned_bytes, pruned_ops)
                h = hashes.get(key)
                if h is None:
                    h = hashes[key] = cell_hash(pruned, pruned_ops)
                if h not in seen:
                    seen[h] = ModelSpec(matrix, ops)
    return list(seen.values())


def sample_unique_cells(
    n: int,
    seed: int | np.random.Generator | None = None,
    min_vertices: int = 6,
    max_vertices: int = MAX_VERTICES,
    exclude_hashes: set[str] | None = None,
    max_tries: int | None = None,
) -> list[ModelSpec]:
    """Sample ``n`` unique valid cells with the given vertex range."""
    rng = make_rng(seed)
    exclude = set(exclude_hashes or ())
    found: dict[str, ModelSpec] = {}
    tries = 0
    budget = max_tries if max_tries is not None else max(200 * n, 10_000)
    while len(found) < n and tries < budget:
        tries += 1
        num_vertices = int(rng.integers(min_vertices, max_vertices + 1))
        pair_count = num_vertices * (num_vertices - 1) // 2
        # Bias edge density toward valid (<=9 edge) graphs.
        p_edge = min(0.9, 7.0 / pair_count)
        matrix = np.zeros((num_vertices, num_vertices), dtype=np.int8)
        for i in range(num_vertices):
            for j in range(i + 1, num_vertices):
                matrix[i, j] = 1 if rng.random() < p_edge else 0
        interior = tuple(
            INTERIOR_OPS[int(rng.integers(0, len(INTERIOR_OPS)))]
            for _ in range(num_vertices - 2)
        )
        spec = ModelSpec(matrix, (INPUT, *interior, OUTPUT))
        if not spec.valid or spec.num_vertices < min_vertices:
            continue
        h = spec.spec_hash()
        if h in exclude or h in found:
            continue
        found[h] = spec
    return list(found.values())


@dataclass
class CellDatabase:
    """A fixed, queryable set of unique cells with surrogate statistics."""

    records: list[CellRecord]
    surrogate: Cifar10Surrogate
    _by_hash: dict[str, CellRecord] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._by_hash = {r.spec_hash: r for r in self.records}
        if len(self._by_hash) != len(self.records):
            raise ValueError("database contains duplicate cells")

    # --- constructors ---------------------------------------------------
    @classmethod
    def from_specs(
        cls, specs: list[ModelSpec], surrogate: Cifar10Surrogate | None = None
    ) -> "CellDatabase":
        surrogate = surrogate or Cifar10Surrogate()
        records = []
        seen: set[str] = set()
        for spec in specs:
            if not spec.valid:
                raise ValueError("database specs must be valid")
            h = spec.spec_hash()
            if h in seen:
                continue
            seen.add(h)
            features = extract_features(spec)
            val, test, seconds = surrogate.statistics(features, h)
            records.append(CellRecord(spec, h, features, val, test, seconds))
        return cls(records, surrogate)

    @classmethod
    def nasbench_micro(
        cls, surrogate: Cifar10Surrogate | None = None
    ) -> "CellDatabase":
        """Exhaustive <=5-vertex space (shared by search and Pareto)."""
        return cls.from_specs(enumerate_unique_cells(5), surrogate)

    @classmethod
    def nasbench_lite(
        cls,
        extra_cells: int = 2000,
        seed: int | np.random.Generator | None = None,
        surrogate: Cifar10Surrogate | None = None,
    ) -> "CellDatabase":
        """Micro space plus ``extra_cells`` sampled 6/7-vertex cells."""
        base = enumerate_unique_cells(5)
        exclude = {s.spec_hash() for s in base}
        extra = sample_unique_cells(extra_cells, seed, exclude_hashes=exclude)
        return cls.from_specs(base + extra, surrogate)

    # --- stored table -----------------------------------------------------
    def to_columns(self) -> dict[str, np.ndarray]:
        """The records as named arrays, one row per record, in order.

        ``matrix`` holds each original matrix zero-padded to the largest
        one and ``ops`` its original ops padded with ``""``; then come
        ``spec_hash``, one ``feature.<name>`` array per
        :class:`CellFeatures` field, and the three statistics.  Every
        value keeps its exact bits, so :meth:`from_columns` rebuilds
        equal records.
        """
        records = self.records
        size = max((len(r.spec.original_ops) for r in records), default=0)
        matrix = np.zeros((len(records), size, size), dtype=np.int8)
        ops = []
        for i, record in enumerate(records):
            n = len(record.spec.original_ops)
            matrix[i, :n, :n] = record.spec.original_matrix
            ops.append(record.spec.original_ops + ("",) * (size - n))
        columns = {
            "matrix": matrix,
            "ops": np.array(ops, dtype=str).reshape(len(records), size),
            "spec_hash": np.array([r.spec_hash for r in records], dtype=str),
        }
        for name in _FEATURES:
            columns[f"feature.{name}"] = np.array(
                [getattr(r.features, name) for r in records]
            )
        for name in _STATISTICS:
            columns[name] = np.array(
                [getattr(r, name) for r in records], dtype=np.float64
            )
        return columns

    @classmethod
    def from_columns(cls, columns, surrogate: Cifar10Surrogate) -> "CellDatabase":
        """The database :meth:`to_columns` stored, record for record.

        ``columns`` maps the names :meth:`to_columns` writes to arrays
        (a loaded ``.npz`` archive will do); ``surrogate`` is the one
        that derived the stored statistics.  Every spec goes through
        the :class:`ModelSpec` constructor, so it is pruned and
        validated as when it was enumerated.  Raises ``KeyError`` for a
        missing column and ``ValueError`` for columns of unequal
        length, an invalid spec or a duplicate cell.
        """
        names = ["matrix", "ops", "spec_hash", *_STATISTICS]
        names += [f"feature.{name}" for name in _FEATURES]
        arrays = {name: np.asarray(columns[name]) for name in names}
        count = len(arrays["ops"])
        if any(len(array) != count for array in arrays.values()):
            raise ValueError("cell table columns differ in length")
        matrices = arrays.pop("matrix")
        if matrices.ndim != 3:
            raise ValueError("cell table matrices must be a (cells, n, n) array")
        values = {name: array.tolist() for name, array in arrays.items()}
        feature_rows = zip(*(values[f"feature.{name}"] for name in _FEATURES))
        stat_rows = zip(*(values[name] for name in _STATISTICS))
        rows = zip(values["ops"], values["spec_hash"], feature_rows, stat_rows)
        records = []
        for i, (padded_ops, spec_hash, feature_row, stats) in enumerate(rows):
            ops = tuple(op for op in padded_ops if op)
            spec = ModelSpec(matrices[i, : len(ops), : len(ops)].copy(), ops)
            if not spec.valid:
                raise ValueError(f"stored cell {i} is invalid: {spec.invalid_reason}")
            features = CellFeatures(*feature_row)
            records.append(CellRecord(spec, spec_hash, features, *stats))
        return cls(records, surrogate)

    # --- queries ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __contains__(self, spec: ModelSpec) -> bool:
        return spec.valid and spec.spec_hash() in self._by_hash

    def get(self, spec: ModelSpec) -> CellRecord | None:
        """Record for ``spec`` or ``None`` when not in the database."""
        if not spec.valid:
            return None
        return self._by_hash.get(spec.spec_hash())

    def accuracies(self) -> np.ndarray:
        """Vector of validation accuracies in record order."""
        return np.array([r.validation_accuracy for r in self.records])

    def stats(self) -> dict[str, float]:
        acc = self.accuracies()
        return {
            "count": float(len(self.records)),
            "acc_min": float(acc.min()),
            "acc_mean": float(acc.mean()),
            "acc_max": float(acc.max()),
        }
