"""Tests for repro.nasbench.skeleton (channel inference + config)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nasbench.skeleton import (
    CIFAR10_SKELETON,
    CIFAR100_SKELETON,
    SkeletonConfig,
    compute_vertex_channels,
)


class TestSkeletonConfig:
    def test_defaults_match_nasbench(self):
        assert CIFAR10_SKELETON.stem_channels == 128
        assert CIFAR10_SKELETON.num_stacks == 3
        assert CIFAR10_SKELETON.cells_per_stack == 3
        assert CIFAR10_SKELETON.num_classes == 10
        assert CIFAR100_SKELETON.num_classes == 100

    def test_stack_channels_double(self):
        assert CIFAR10_SKELETON.stack_channels() == [128, 256, 512]

    def test_stack_spatial_halves(self):
        assert CIFAR10_SKELETON.stack_spatial() == [(32, 32), (16, 16), (8, 8)]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SkeletonConfig(stem_channels=0)

    def test_rejects_undivisible_input(self):
        with pytest.raises(ValueError):
            SkeletonConfig(input_height=30, input_width=30, num_stacks=3)


def chain_matrix(n):
    m = np.zeros((n, n), dtype=np.int8)
    for i in range(n - 1):
        m[i, i + 1] = 1
    return m


class TestVertexChannels:
    def test_two_vertex_cell(self):
        assert compute_vertex_channels(128, 256, chain_matrix(2)) == [128, 256]

    def test_chain_propagates_output(self):
        assert compute_vertex_channels(128, 256, chain_matrix(4)) == [128, 256, 256, 256]

    def test_even_split_on_concat(self):
        m = np.zeros((4, 4), dtype=np.int8)
        m[0, 1] = m[0, 2] = m[1, 3] = m[2, 3] = 1
        assert compute_vertex_channels(128, 256, m) == [128, 128, 128, 256]

    def test_remainder_goes_to_first(self):
        m = np.zeros((5, 5), dtype=np.int8)
        m[0, 1] = m[0, 2] = m[0, 3] = 1
        m[1, 4] = m[2, 4] = m[3, 4] = 1
        channels = compute_vertex_channels(128, 128, m)
        assert channels[1:4] == [43, 43, 42]
        assert sum(channels[1:4]) == 128

    def test_interior_takes_max_of_successors(self):
        # v1 -> v2 and v1 -> v3; v2, v3 -> output with unequal split.
        m = np.zeros((5, 5), dtype=np.int8)
        m[0, 1] = m[1, 2] = m[1, 3] = m[2, 4] = m[3, 4] = 1
        channels = compute_vertex_channels(128, 127, m)
        assert channels[2] == 64 and channels[3] == 63
        assert channels[1] == 64  # max of successors

    def test_output_skip_not_counted_in_split(self):
        m = np.zeros((3, 3), dtype=np.int8)
        m[0, 1] = m[1, 2] = m[0, 2] = 1  # input->output skip
        assert compute_vertex_channels(128, 256, m) == [128, 256, 256]

    def test_needs_interior_predecessor(self):
        m = np.zeros((3, 3), dtype=np.int8)
        m[0, 2] = 1
        m[0, 1] = 1  # v1 reaches nothing (would be pruned upstream)
        with pytest.raises(ValueError):
            compute_vertex_channels(8, 8, m)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**10 - 1), st.integers(8, 256), st.integers(8, 256))
    def test_invariants_on_random_pruned_cells(self, bits, in_ch, out_ch):
        from repro.nasbench import graph_util

        n = 5
        m = np.zeros((n, n), dtype=np.int8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for k, (i, j) in enumerate(pairs):
            m[i, j] = (bits >> k) & 1
        kept = graph_util.kept_vertices(m)
        if kept is None:
            return
        matrix = m[np.ix_(kept, kept)]
        channels = compute_vertex_channels(in_ch, out_ch, matrix)
        v = matrix.shape[0]
        # Concat inputs sum exactly to the output channels.
        if v > 2:
            fan_in = sum(channels[i] for i in range(1, v - 1) if matrix[i, v - 1])
            assert fan_in == out_ch
        # Channels never increase along interior edges.
        for i in range(1, v - 1):
            for j in range(i + 1, v - 1):
                if matrix[i, j]:
                    assert channels[i] >= channels[j]
