"""Tests for the cell database (NASBench table stand-in)."""

import itertools

import numpy as np
import pytest

from repro.nasbench import database, graph_util
from repro.nasbench import surrogate as surrogate_module
from repro.nasbench.database import (
    CellDatabase,
    CellRecord,
    enumerate_unique_cells,
    sample_unique_cells,
)
from repro.nasbench.known_cells import resnet_cell
from repro.nasbench.model_spec import ModelSpec
from repro.nasbench.ops import CONV3X3, INPUT, INTERIOR_OPS, OUTPUT
from repro.nasbench.surrogate import Cifar10Surrogate


def all_candidates(max_vertices):
    """Every (matrix, ops) candidate, in enumeration order."""
    for num_vertices in range(2, max_vertices + 1):
        pairs = [(i, j) for i in range(num_vertices) for j in range(i + 1, num_vertices)]
        op_products = itertools.product(INTERIOR_OPS, repeat=num_vertices - 2)
        op_choices = [(INPUT, *interior, OUTPUT) for interior in op_products]
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            matrix = np.zeros((num_vertices, num_vertices), dtype=np.int8)
            for (i, j), bit in zip(pairs, bits):
                matrix[i, j] = bit
            for ops in op_choices:
                yield matrix, ops


def per_candidate_enumerate_unique_cells(max_vertices):
    """The enumeration before it pruned each matrix once.

    One ModelSpec and one spec_hash per candidate; kept as the
    reference the deduplicating loop must reproduce, order included.
    """
    seen = {}
    for matrix, ops in all_candidates(max_vertices):
        spec = ModelSpec(matrix, ops)
        if not spec.valid:
            continue
        seen.setdefault(spec.spec_hash(), spec)
    return list(seen.values())


def layout(specs):
    """Each spec's original matrix (bytes and shape) and ops, in order."""
    return [(s.original_matrix.tobytes(), s.original_matrix.shape, s.original_ops) for s in specs]


def counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` so calls are counted; returns the counter."""
    calls = [0]
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestEnumeration:
    @pytest.mark.parametrize("max_vertices", [2, 3, 4])
    def test_matches_per_candidate_reference(self, max_vertices):
        assert layout(enumerate_unique_cells(max_vertices)) == layout(
            per_candidate_enumerate_unique_cells(max_vertices)
        )

    def test_each_pruned_cell_hashed_once(self, monkeypatch):
        pruned_cells = {
            (spec.matrix.tobytes(), spec.ops)
            for spec in (ModelSpec(m, ops) for m, ops in all_candidates(4))
            if spec.valid
        }
        calls = counting(monkeypatch, graph_util, "hash_module")
        enumerate_unique_cells(4)
        assert calls[0] == len(pruned_cells)

    def test_micro4_count_is_stable(self):
        cells = enumerate_unique_cells(4)
        # Pinned: the exhaustive <=4-vertex unique-cell count.
        assert len(cells) == len({c.spec_hash() for c in cells})
        assert len(cells) > 30

    def test_all_enumerated_valid(self):
        for spec in enumerate_unique_cells(3):
            assert spec.valid
            assert spec.num_vertices <= 3

    def test_enumeration_rejects_large_spaces(self):
        with pytest.raises(ValueError):
            enumerate_unique_cells(6)

    def test_resnet_cell_is_in_micro4(self):
        hashes = {c.spec_hash() for c in enumerate_unique_cells(4)}
        assert resnet_cell().spec_hash() in hashes


class TestSampling:
    def test_sampled_unique_and_in_range(self):
        cells = sample_unique_cells(25, seed=0)
        assert len(cells) == 25
        assert len({c.spec_hash() for c in cells}) == 25
        assert all(6 <= c.num_vertices <= 7 for c in cells)

    def test_seed_determinism(self):
        a = [c.spec_hash() for c in sample_unique_cells(10, seed=3)]
        b = [c.spec_hash() for c in sample_unique_cells(10, seed=3)]
        assert a == b

    def test_exclusion(self):
        first = sample_unique_cells(10, seed=0)
        exclude = {c.spec_hash() for c in first}
        more = sample_unique_cells(10, seed=0, exclude_hashes=exclude)
        assert not exclude & {c.spec_hash() for c in more}

    def test_budget_cap(self):
        cells = sample_unique_cells(10_000, seed=0, max_tries=500)
        assert len(cells) < 10_000


class TestDatabase:
    def test_from_specs_dedupes(self):
        spec = resnet_cell()
        db = CellDatabase.from_specs([spec, resnet_cell()])
        assert len(db) == 1

    def test_contains_and_get(self):
        db = CellDatabase.from_specs(enumerate_unique_cells(3))
        spec = db.records[0].spec
        assert spec in db
        record = db.get(spec)
        assert isinstance(record, CellRecord)
        assert record.validation_accuracy > 0

    def test_get_missing_returns_none(self):
        db = CellDatabase.from_specs(enumerate_unique_cells(3))
        outside = sample_unique_cells(1, seed=0)[0]
        assert db.get(outside) is None

    def test_invalid_spec_not_contained(self):
        db = CellDatabase.from_specs(enumerate_unique_cells(3))
        bad = ModelSpec(np.zeros((3, 3), dtype=int), (INPUT, CONV3X3, OUTPUT))
        assert bad not in db
        assert db.get(bad) is None

    def test_rejects_invalid_spec(self):
        bad = ModelSpec(np.zeros((3, 3), dtype=int), (INPUT, CONV3X3, OUTPUT))
        with pytest.raises(ValueError):
            CellDatabase.from_specs([bad])

    def test_accuracies_align_with_records(self):
        db = CellDatabase.from_specs(enumerate_unique_cells(3))
        acc = db.accuracies()
        assert len(acc) == len(db)
        assert acc[0] == db.records[0].validation_accuracy

    def test_nasbench_lite_superset_of_micro(self):
        db = CellDatabase.nasbench_lite(extra_cells=15, seed=0)
        micro_hashes = {c.spec_hash() for c in enumerate_unique_cells(5)}
        db_hashes = {r.spec_hash for r in db.records}
        assert micro_hashes <= db_hashes
        assert len(db_hashes) == len(micro_hashes) + 15

    def test_stats_keys(self):
        db = CellDatabase.from_specs(enumerate_unique_cells(3))
        stats = db.stats()
        assert set(stats) == {"count", "acc_min", "acc_mean", "acc_max"}
        assert stats["acc_min"] <= stats["acc_mean"] <= stats["acc_max"]

    def test_from_specs_featurizes_and_hashes_each_record_once(self, monkeypatch):
        specs = enumerate_unique_cells(3)
        hashes = counting(monkeypatch, ModelSpec, "spec_hash")
        features = counting(monkeypatch, database, "extract_features")
        surrogate_features = counting(monkeypatch, surrogate_module, "extract_features")
        db = CellDatabase.from_specs(specs)
        assert len(db) == len(specs)
        assert hashes[0] == features[0] == len(specs)
        assert surrogate_features[0] == 0

    def test_shared_surrogate_consistency(self):
        surrogate = Cifar10Surrogate(seed=9)
        db = CellDatabase.from_specs(enumerate_unique_cells(3), surrogate)
        rec = db.records[0]
        assert rec.validation_accuracy == surrogate.validation_accuracy(rec.spec)
