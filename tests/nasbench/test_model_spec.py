"""Tests for repro.nasbench.model_spec."""

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nasbench import model_spec
from repro.nasbench.encoding import CellEncoding
from repro.nasbench.model_spec import (
    MAX_EDGES,
    MAX_VERTICES,
    InvalidSpecError,
    ModelSpec,
    cell_hash,
)
from repro.nasbench.ops import CONV1X1, CONV3X3, INPUT, MAXPOOL3X3, OUTPUT
from tests.conftest import count_hashes


def make_spec(matrix, interior_ops):
    n = len(matrix)
    ops = (INPUT, *interior_ops, OUTPUT)
    assert len(ops) == n
    return ModelSpec(np.array(matrix), ops)


VALID_3 = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]


class TestValidity:
    def test_simple_chain_valid(self):
        spec = make_spec(VALID_3, [CONV3X3])
        assert spec.valid
        assert spec.num_vertices == 3
        assert spec.num_edges == 2

    def test_too_many_vertices(self):
        n = MAX_VERTICES + 1
        m = np.zeros((n, n), dtype=int)
        m[0, n - 1] = 1
        spec = ModelSpec(m, (INPUT, *[CONV3X3] * (n - 2), OUTPUT))
        assert not spec.valid
        assert "vertices" in spec.invalid_reason

    def test_too_many_edges_after_pruning(self):
        n = 6
        m = np.triu(np.ones((n, n), dtype=int), 1)  # 15 edges
        spec = ModelSpec(m, (INPUT, *[CONV3X3] * (n - 2), OUTPUT))
        assert not spec.valid
        assert str(MAX_EDGES) in spec.invalid_reason

    def test_disconnected_invalid(self):
        spec = make_spec([[0, 1, 0], [0, 0, 0], [0, 0, 0]], [CONV3X3])
        assert not spec.valid
        assert "path" in spec.invalid_reason

    def test_lower_triangular_invalid(self):
        spec = make_spec([[0, 1, 1], [1, 0, 1], [0, 0, 0]], [CONV3X3])
        assert not spec.valid

    def test_non_binary_invalid(self):
        spec = make_spec([[0, 2, 0], [0, 0, 1], [0, 0, 0]], [CONV3X3])
        assert not spec.valid

    def test_bad_interior_op(self):
        spec = ModelSpec(np.array(VALID_3), (INPUT, "conv7x7", OUTPUT))
        assert not spec.valid

    def test_bad_endpoint_ops(self):
        spec = ModelSpec(np.array(VALID_3), (CONV3X3, CONV3X3, OUTPUT))
        assert not spec.valid
        spec = ModelSpec(np.array(VALID_3), (INPUT, CONV3X3, CONV3X3))
        assert not spec.valid

    def test_single_vertex_invalid(self):
        spec = ModelSpec(np.zeros((1, 1), dtype=int), (INPUT,))
        assert not spec.valid


class TestBinaryCheck:
    """Only entries equal to 0 or 1 are edges; nothing is cast first."""

    # Cast to int8 before the check, 257 and -255 wrap to 1, 1.7
    # truncates to 1 and NaN becomes 0; 2.0 and -1 stay out of range.
    @pytest.mark.parametrize("value", [257, -255, 1.7, 2.0, -1, float("nan")])
    @pytest.mark.parametrize("container", [np.array, lambda rows: rows])
    def test_out_of_range_entry_is_invalid(self, value, container):
        rows = [[0, 1, 0], [0, 0, value], [0, 0, 0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = ModelSpec(container(rows), (INPUT, CONV3X3, OUTPUT))
        assert not spec.valid
        assert spec.invalid_reason == "adjacency matrix must be binary"

    def test_zero_dimensional_matrix_is_not_square(self):
        spec = ModelSpec(np.array(1), (INPUT, OUTPUT))
        assert not spec.valid
        assert spec.invalid_reason == "adjacency matrix must be square"

    @pytest.mark.parametrize("dtype", [bool, float, np.int64, np.uint8])
    def test_values_equal_to_zero_or_one_pass(self, dtype):
        spec = ModelSpec(np.array(VALID_3, dtype=dtype), (INPUT, CONV3X3, OUTPUT))
        assert spec.valid
        assert spec.original_matrix.dtype == np.int8
        assert spec == make_spec(VALID_3, [CONV3X3])

    def test_hand_edited_dict_stays_invalid(self):
        data = make_spec(VALID_3, [CONV3X3]).to_dict()
        data["matrix"][1][2] = 257
        spec = ModelSpec.from_dict(data)
        assert not spec.valid
        assert not ModelSpec.from_dict(spec.to_dict()).valid


class TestPruning:
    def test_dangling_vertex_removed(self):
        # Vertex 2 has no path to the output.
        spec = make_spec(
            [[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
            [CONV3X3, CONV1X1],
        )
        assert spec.valid
        assert spec.num_vertices == 3
        assert CONV1X1 not in spec.ops

    def test_pruned_spec_equpossible_to_original(self):
        pruned = make_spec(
            [[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
            [CONV3X3, CONV1X1],
        )
        direct = make_spec(VALID_3, [CONV3X3])
        assert pruned == direct
        assert pruned.spec_hash() == direct.spec_hash()

    def test_original_preserved(self):
        matrix = [[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]
        spec = make_spec(matrix, [CONV3X3, CONV1X1])
        assert spec.original_matrix.shape == (4, 4)
        assert len(spec.original_ops) == 4


class TestProperties:
    def test_op_counts(self):
        spec = make_spec(
            [[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]],
            [CONV3X3, MAXPOOL3X3],
        )
        counts = spec.op_counts()
        assert counts[CONV3X3] == 1
        assert counts[MAXPOOL3X3] == 1
        assert counts[CONV1X1] == 0

    def test_depth(self):
        spec = make_spec(VALID_3, [CONV3X3])
        assert spec.depth() == 3

    def test_output_skip(self):
        spec = make_spec([[0, 1, 1], [0, 0, 1], [0, 0, 0]], [CONV3X3])
        assert spec.has_output_skip()
        assert not make_spec(VALID_3, [CONV3X3]).has_output_skip()

    def test_invalid_spec_has_no_hash(self):
        spec = make_spec([[0, 1, 0], [0, 0, 0], [0, 0, 0]], [CONV3X3])
        with pytest.raises(InvalidSpecError):
            spec.spec_hash()

    def test_str_contains_ops(self):
        assert CONV3X3 in str(make_spec(VALID_3, [CONV3X3]))
        assert "invalid" in str(make_spec([[0, 0, 0]] * 3, [CONV3X3]))


class TestSerialization:
    def test_round_trip(self):
        spec = make_spec(VALID_3, [CONV3X3])
        clone = ModelSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_hashable(self):
        a = make_spec(VALID_3, [CONV3X3])
        b = make_spec(VALID_3, [CONV3X3])
        assert len({a, b}) == 1

    @pytest.mark.parametrize("decoded", [False, True])
    def test_pickle_keeps_identity_and_remembered_hash(self, monkeypatch, decoded):
        spec = make_spec(VALID_3, [CONV3X3])
        if decoded:
            encoding = CellEncoding(max_vertices=3)
            spec = encoding.decode(encoding.encode(spec))
        expected = spec.spec_hash()
        clone = pickle.loads(pickle.dumps(spec))
        model_spec._HASH_MEMO.clear()
        calls = count_hashes(monkeypatch)
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert clone.spec_hash() == expected
        assert calls == []


class TestRememberedHash:
    def test_each_pruned_cell_hashed_once(self, monkeypatch):
        model_spec._HASH_MEMO.clear()
        calls = count_hashes(monkeypatch)
        spec = make_spec(VALID_3, [CONV3X3])
        expected = spec.spec_hash()
        assert spec.spec_hash() == expected
        # Another object of the same pruned cell, behind a dangling vertex.
        dangling = make_spec(
            [[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
            [CONV3X3, CONV1X1],
        )
        assert dangling.spec_hash() == expected
        assert len(calls) == 1
        assert expected == cell_hash(spec.matrix, spec.ops)

    def test_remembered_hash_is_not_part_of_the_spec(self):
        hashed = make_spec(VALID_3, [CONV3X3])
        fresh = make_spec(VALID_3, [CONV3X3])
        hashed.spec_hash()
        assert hashed == fresh
        assert hash(hashed) == hash(fresh)
        assert repr(hashed) == repr(fresh)
        assert hashed.to_dict() == fresh.to_dict()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**10 - 1), st.tuples(*[st.integers(0, 2)] * 3))
def test_construction_never_crashes(bits, op_idx):
    """Any raw (matrix, ops) decodes to a spec, valid or not."""
    from repro.nasbench.ops import INTERIOR_OPS

    n = 5
    m = np.zeros((n, n), dtype=int)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for k, (i, j) in enumerate(pairs):
        m[i, j] = (bits >> k) & 1
    ops = (INPUT, *(INTERIOR_OPS[i] for i in op_idx), OUTPUT)
    spec = ModelSpec(m, ops)
    if spec.valid:
        assert 2 <= spec.num_vertices <= n
        assert spec.num_edges <= MAX_EDGES
        spec.spec_hash()
