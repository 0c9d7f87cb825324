"""Tests for repro.nasbench.graph_util."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nasbench import graph_util


def chain(n):
    m = np.zeros((n, n), dtype=np.int8)
    for i in range(n - 1):
        m[i, i + 1] = 1
    return m


class TestBasics:
    def test_upper_triangular(self):
        assert graph_util.is_upper_triangular(chain(4))
        bad = chain(4)
        bad[2, 1] = 1
        assert not graph_util.is_upper_triangular(bad)

    def test_num_edges(self):
        assert graph_util.num_edges(chain(5)) == 4

    def test_reachability(self):
        m = chain(4)
        assert graph_util.reachable_from(m, 0) == {0, 1, 2, 3}
        assert graph_util.reaching_to(m, 3) == {0, 1, 2, 3}

    def test_unreachable_vertex(self):
        m = np.zeros((3, 3), dtype=np.int8)
        m[0, 2] = 1  # vertex 1 is isolated
        assert graph_util.reachable_from(m, 0) == {0, 2}


class TestPrune:
    def test_keeps_connected(self):
        assert graph_util.kept_vertices(chain(4)) == [0, 1, 2, 3]

    def test_removes_dangling(self):
        m = np.zeros((4, 4), dtype=np.int8)
        m[0, 1] = 1
        m[1, 3] = 1
        m[0, 2] = 1  # vertex 2 never reaches the output
        assert graph_util.kept_vertices(m) == [0, 1, 3]

    def test_disconnected_returns_none(self):
        m = np.zeros((3, 3), dtype=np.int8)
        m[0, 1] = 1  # nothing reaches the output
        assert graph_util.kept_vertices(m) is None

    def test_direct_edge_only(self):
        m = np.zeros((2, 2), dtype=np.int8)
        m[0, 1] = 1
        assert graph_util.kept_vertices(m) == [0, 1]


class TestHashModule:
    def test_isomorphic_graphs_collide(self):
        m = np.zeros((4, 4), dtype=np.int8)
        m[0, 1] = m[0, 2] = m[1, 3] = m[2, 3] = 1
        labels = [-1, 0, 1, -2]
        permuted, plabels = graph_util.permute_matrix(
            m, [str(x) for x in labels], [0, 2, 1, 3]
        )
        h1 = graph_util.hash_module(m, labels)
        h2 = graph_util.hash_module(permuted, [int(x) for x in plabels])
        assert h1 == h2

    def test_different_labels_differ(self):
        m = chain(4)
        assert graph_util.hash_module(m, [-1, 0, 0, -2]) != graph_util.hash_module(
            m, [-1, 0, 1, -2]
        )

    def test_different_topology_differs(self):
        m1 = chain(4)
        m2 = chain(4)
        m2[0, 3] = 1
        labels = [-1, 0, 0, -2]
        assert graph_util.hash_module(m1, labels) != graph_util.hash_module(m2, labels)

    def test_label_length_mismatch_raises(self):
        import pytest

        with pytest.raises(ValueError):
            graph_util.hash_module(chain(3), [-1, -2])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**20 - 1), st.permutations(list(range(5))))
    def test_hash_invariant_under_permutation(self, bits, perm):
        n = 5
        m = np.zeros((n, n), dtype=np.int8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for k, (i, j) in enumerate(pairs):
            m[i, j] = (bits >> k) & 1
        labels = [-1, 0, 1, 2, -2]
        plabels = [0] * n
        pm = np.zeros_like(m)
        for src in range(n):
            plabels[perm[src]] = labels[src]
            for dst in range(n):
                if m[src, dst]:
                    pm[perm[src], perm[dst]] = 1
        assert graph_util.hash_module(m, labels) == graph_util.hash_module(pm, plabels)


class TestPaths:
    def test_longest_path(self):
        assert graph_util.longest_path_length(chain(5)) == 5

    def test_longest_path_with_shortcut(self):
        m = chain(4)
        m[0, 3] = 1
        assert graph_util.longest_path_length(m) == 4

    def test_unreachable_output(self):
        m = np.zeros((3, 3), dtype=np.int8)
        m[0, 1] = 1
        assert graph_util.longest_path_length(m) == 0

    def test_topological_layers(self):
        m = chain(4)
        m[0, 2] = 1
        assert graph_util.topological_layers(m) == [0, 1, 2, 3]
