"""Tests for the Pareto machinery against brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pareto import (
    ProductParetoResult,
    pareto_mask_2d,
    pareto_mask_3d,
    product_space_pareto,
)


def per_config_product_space_pareto(accuracy, area_mm2, latency_ms):
    """The product-space Pareto before latency classes: one staircase per config.

    Kept as the reference the class-grouped version must reproduce,
    array for array and in order.
    """
    accuracy = np.asarray(accuracy, dtype=np.float64)
    area_mm2 = np.asarray(area_mm2, dtype=np.float64)
    latency_ms = np.asarray(latency_ms, dtype=np.float64)
    n_cfg = latency_ms.shape[1]
    order = np.argsort(latency_ms, axis=0, kind="stable")
    acc_sorted = accuracy[order]
    running = np.maximum.accumulate(acc_sorted, axis=0)
    keep_sorted = acc_sorted >= running
    candidate_cells = []
    candidate_cfgs = []
    for h in range(n_cfg):
        rows = order[keep_sorted[:, h], h]
        candidate_cells.append(rows)
        candidate_cfgs.append(np.full(len(rows), h, dtype=np.int64))
    cells = np.concatenate(candidate_cells)
    cfgs = np.concatenate(candidate_cfgs)
    objectives = np.column_stack(
        [-area_mm2[cfgs], -latency_ms[cells, cfgs], accuracy[cells]]
    )
    mask = pareto_mask_3d(objectives)
    cells = cells[mask]
    cfgs = cfgs[mask]
    return ProductParetoResult(
        cell_indices=cells,
        config_indices=cfgs,
        accuracy=accuracy[cells],
        latency_ms=latency_ms[cells, cfgs],
        area_mm2=area_mm2[cfgs],
    )


def assert_same_front(got, want):
    """All five arrays equal in dtype, shape and bytes (order included)."""
    for name in ("cell_indices", "config_indices", "accuracy", "latency_ms", "area_mm2"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


@st.composite
def product_spaces(draw):
    """Small product spaces rich in ties.

    Few distinct latency columns (so configs share them), few area,
    latency and accuracy levels, and both signs of zero latency (equal
    as floats, not as bytes).  Finite values only, like every caller's.
    """
    n_cells = draw(st.integers(1, 8))
    n_columns = draw(st.integers(1, 4))
    n_cfg = draw(st.integers(1, 12))
    latencies = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.5])
    columns = [
        draw(st.lists(latencies, min_size=n_cells, max_size=n_cells))
        for _ in range(n_columns)
    ]
    picks = draw(st.lists(st.integers(0, n_columns - 1), min_size=n_cfg, max_size=n_cfg))
    areas = draw(
        st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=n_cfg, max_size=n_cfg)
    )
    accuracy = draw(
        st.lists(st.sampled_from([90.0, 91.0, 92.5]), min_size=n_cells, max_size=n_cells)
    )
    latency = np.array([columns[k] for k in picks], dtype=np.float64).T
    return np.array(accuracy), np.array(areas), latency


def brute_force_mask(points: np.ndarray) -> np.ndarray:
    n = len(points)
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if np.all(points[j] >= points[i]) and np.any(points[j] > points[i]):
                mask[i] = False
                break
    return mask


class TestPareto2D:
    def test_simple(self):
        xs = np.array([1.0, 2.0, 3.0])
        ys = np.array([3.0, 2.0, 1.0])
        assert pareto_mask_2d(xs, ys).all()

    def test_dominated_removed(self):
        xs = np.array([1.0, 2.0])
        ys = np.array([1.0, 2.0])
        assert list(pareto_mask_2d(xs, ys)) == [False, True]

    def test_duplicates_kept(self):
        xs = np.array([2.0, 2.0, 1.0])
        ys = np.array([2.0, 2.0, 1.0])
        assert list(pareto_mask_2d(xs, ys)) == [True, True, False]

    def test_empty(self):
        assert pareto_mask_2d(np.array([]), np.array([])).shape == (0,)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=40))
    def test_matches_brute_force(self, pairs):
        points = np.array(pairs, dtype=float)
        expected = brute_force_mask(np.column_stack([points[:, 0], points[:, 1], np.zeros(len(points))]))
        got = pareto_mask_2d(points[:, 0], points[:, 1])
        assert np.array_equal(got, expected)


class TestPareto3D:
    def test_known_front(self):
        points = np.array(
            [[1, 1, 1], [2, 0, 0], [0, 2, 0], [0, 0, 2], [0.5, 0.5, 0.5]]
        )
        mask = pareto_mask_3d(points)
        assert list(mask) == [True, True, True, True, False]

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            pareto_mask_3d(np.zeros((3, 2)))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
            min_size=1,
            max_size=50,
        )
    )
    def test_matches_brute_force(self, triples):
        points = np.array(triples, dtype=float)
        assert np.array_equal(pareto_mask_3d(points), brute_force_mask(points))

    def test_random_floats_match_brute_force(self, rng):
        points = rng.random((200, 3))
        assert np.array_equal(pareto_mask_3d(points), brute_force_mask(points))

    def test_duplicates_survive_together(self):
        points = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.5, 0.5, 0.5]])
        assert list(pareto_mask_3d(points)) == [True, True, False]


class TestProductSpacePareto:
    def _brute(self, acc, area, lat):
        rows = []
        for i in range(len(acc)):
            for h in range(len(area)):
                rows.append((-area[h], -lat[i, h], acc[i], i, h))
        points = np.array([(r[0], r[1], r[2]) for r in rows])
        mask = brute_force_mask(points)
        return {(rows[k][3], rows[k][4]) for k in range(len(rows)) if mask[k]}

    def test_matches_brute_force_random(self, rng):
        acc = rng.uniform(80, 95, size=12)
        area = rng.uniform(50, 200, size=9)
        lat = rng.uniform(5, 400, size=(12, 9))
        front = product_space_pareto(acc, area, lat)
        got = set(zip(front.cell_indices.tolist(), front.config_indices.tolist()))
        assert got == self._brute(acc, area, lat)

    def test_structure_correlated_latency(self, rng):
        """Latency correlated with accuracy (real spaces look like this)."""
        acc = np.sort(rng.uniform(85, 95, size=15))
        area = np.sort(rng.uniform(50, 200, size=8))
        lat = np.outer(acc - 80, 1.0 / np.sqrt(area / 50)) + rng.uniform(0, 1, (15, 8))
        front = product_space_pareto(acc, area, lat)
        assert front.num_points == len(self._brute(acc, area, lat))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            product_space_pareto(np.ones(3), np.ones(4), np.ones((3, 5)))

    @settings(max_examples=200, deadline=None)
    @given(product_spaces())
    def test_matches_per_config_reference(self, space):
        acc, area, lat = space
        assert_same_front(
            product_space_pareto(acc, area, lat),
            per_config_product_space_pareto(acc, area, lat),
        )

    def test_matches_per_config_reference_on_micro4(self, micro4_bundle):
        b = micro4_bundle
        assert_same_front(
            product_space_pareto(b.accuracy, b.area_mm2, b.latency_ms),
            per_config_product_space_pareto(b.accuracy, b.area_mm2, b.latency_ms),
        )

    def test_result_accessors(self, rng):
        acc = rng.uniform(80, 95, size=6)
        area = rng.uniform(50, 200, size=5)
        lat = rng.uniform(5, 400, size=(6, 5))
        front = product_space_pareto(acc, area, lat)
        assert front.num_points == len(front.accuracy)
        assert front.num_distinct_cells() <= front.num_points
        assert front.objective_matrix().shape == (front.num_points, 3)

    def test_front_dominates_space(self, micro4_bundle):
        """No enumerated pair strictly dominates any frontier point."""
        b = micro4_bundle
        front = product_space_pareto(b.accuracy, b.area_mm2, b.latency_ms)
        # Spot-check 50 random frontier points against the whole space.
        gen = np.random.default_rng(1)
        idx = gen.integers(0, front.num_points, size=min(50, front.num_points))
        for k in idx:
            acc, lat, area = front.accuracy[k], front.latency_ms[k], front.area_mm2[k]
            better_acc = b.accuracy[:, None] >= acc
            better_lat = b.latency_ms <= lat
            better_area = (b.area_mm2 <= area)[None, :]
            strictly = (
                (b.accuracy[:, None] > acc)
                | (b.latency_ms < lat)
                | (b.area_mm2 < area)[None, :]
            )
            dominating = better_acc & better_lat & better_area & strictly
            assert not dominating.any()
