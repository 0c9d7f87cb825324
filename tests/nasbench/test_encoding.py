"""Tests for repro.nasbench.encoding (controller action space)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nasbench.encoding import CellEncoding
from repro.nasbench.known_cells import KNOWN_CELLS, resnet_cell


class TestShape:
    def test_token_counts_full_space(self):
        enc = CellEncoding(max_vertices=7)
        assert enc.num_edge_tokens == 21
        assert enc.num_op_tokens == 5
        assert enc.num_tokens == 26
        assert enc.vocab_sizes == [2] * 21 + [3] * 5

    def test_micro_space(self):
        enc = CellEncoding(max_vertices=5)
        assert enc.num_edge_tokens == 10
        assert enc.num_op_tokens == 3

    def test_space_size(self):
        enc = CellEncoding(max_vertices=5)
        assert enc.space_size == 2**10 * 3**3

    def test_rejects_bad_vertex_count(self):
        with pytest.raises(ValueError):
            CellEncoding(max_vertices=8)
        with pytest.raises(ValueError):
            CellEncoding(max_vertices=1)


class TestDecode:
    def test_wrong_length_raises(self):
        enc = CellEncoding(max_vertices=5)
        with pytest.raises(ValueError):
            enc.decode([0] * 5)

    def test_out_of_range_action_raises(self):
        enc = CellEncoding(max_vertices=5)
        actions = [0] * enc.num_tokens
        actions[0] = 2
        with pytest.raises(ValueError):
            enc.decode(actions)

    def test_one_vector_decodes_to_one_spec(self):
        enc = CellEncoding(max_vertices=5)
        actions = enc.encode(resnet_cell())
        spec = enc.decode(actions)
        assert enc.decode(list(actions)) is spec
        assert enc.decode(tuple(actions)) is spec
        assert enc.decode(np.array(actions)) is spec
        assert CellEncoding(max_vertices=5).decode(actions) == spec

    def test_bad_vector_raises_after_a_hit(self):
        enc = CellEncoding(max_vertices=5)
        actions = enc.encode(resnet_cell())
        enc.decode(actions)
        with pytest.raises(ValueError, match="expected"):
            enc.decode(actions + [0])
        with pytest.raises(ValueError, match="expected"):
            enc.decode(actions[:-1])
        for index, bad in ((0, 2), (0, -1), (enc.num_edge_tokens, 3)):
            wrong = list(actions)
            wrong[index] = bad
            with pytest.raises(ValueError, match="out of range"):
                enc.decode(wrong)

    @pytest.mark.parametrize("cell", [resnet_cell, None])
    def test_interned_arrays_are_read_only(self, cell):
        enc = CellEncoding(max_vertices=5)
        actions = enc.encode(cell()) if cell else [0] * enc.num_tokens
        spec = enc.decode(actions)
        assert spec.valid == (cell is not None)
        for array in (spec.original_matrix, spec.matrix):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 1
        assert enc.decode(actions) is spec

    def test_all_zero_actions_invalid_spec(self):
        enc = CellEncoding(max_vertices=5)
        spec = enc.decode([0] * enc.num_tokens)
        assert not spec.valid  # no edges -> no path

    def test_known_cells_round_trip(self):
        enc = CellEncoding(max_vertices=7)
        for name, factory in KNOWN_CELLS.items():
            spec = factory()
            decoded = enc.decode(enc.encode(spec))
            assert decoded.valid, name
            assert decoded.spec_hash() == spec.spec_hash(), name

    def test_encode_rejects_invalid(self):
        import numpy as np

        from repro.nasbench.model_spec import ModelSpec
        from repro.nasbench.ops import CONV3X3, INPUT, OUTPUT

        enc = CellEncoding(max_vertices=5)
        bad = ModelSpec(np.zeros((3, 3), dtype=int), (INPUT, CONV3X3, OUTPUT))
        with pytest.raises(ValueError):
            enc.encode(bad)

    def test_encode_rejects_too_large(self):
        from repro.nasbench.known_cells import googlenet_cell

        enc = CellEncoding(max_vertices=5)
        with pytest.raises(ValueError):
            enc.encode(googlenet_cell())  # 7 vertices


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_actions_decode_and_round_trip(data):
    enc = CellEncoding(max_vertices=5)
    actions = [data.draw(st.integers(0, v - 1)) for v in enc.vocab_sizes]
    spec = enc.decode(actions)
    if spec.valid:
        again = enc.decode(enc.encode(spec))
        assert again.valid
        assert again.spec_hash() == spec.spec_hash()


def test_random_actions_within_vocab(rng):
    enc = CellEncoding(max_vertices=6)
    for _ in range(20):
        actions = enc.random_actions(rng)
        assert len(actions) == enc.num_tokens
        assert all(0 <= a < v for a, v in zip(actions, enc.vocab_sizes))
