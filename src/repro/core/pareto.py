"""Pareto-frontier tooling for the joint codesign space (Fig. 4).

The joint space is a product: accuracy depends only on the cell, area
only on the accelerator, latency on both.  :func:`product_space_pareto`
exploits that structure so the full cross-product never materializes as
points.  Accelerators whose latency columns are equal byte for byte form
a *latency class* (the 8640 dac2020 configs fall into 126); within a
class, every pair on a larger-area config is strictly dominated by the
same cell on the class's smallest-area config, so only the
smallest-area configs (ties kept) go on.  Each class is reduced once to
its 2D accuracy-latency staircase — a point dominated within its own
slice is certainly dominated globally, because its dominator has the
same area — and the union of the kept configs' staircases then passes
through an exact 3D maxima filter.

Dominance is the weak Pareto order: ``p`` dominates ``q`` when ``p >= q``
component-wise with at least one strict inequality; duplicated metric
vectors therefore survive together, matching how the paper counts
Pareto-optimal *pairs*.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

__all__ = [
    "pareto_mask_3d",
    "pareto_mask_2d",
    "ProductParetoResult",
    "product_space_pareto",
    "reward_ranked_points",
    "scenario_sweep",
]


def pareto_mask_2d(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Mask of weakly non-dominated points maximizing ``(x, y)``."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n = len(xs)
    if n == 0:
        return np.zeros(0, dtype=bool)
    # Sort by x desc, then y desc.  A point is dominated iff a strictly
    # earlier point in this order has y >= its y with (x, y) != (x', y').
    order = np.lexsort((-ys, -xs))
    mask = np.ones(n, dtype=bool)
    best_y = -np.inf
    best_pair: tuple[float, float] | None = None
    for idx in order:
        x, y = xs[idx], ys[idx]
        if best_pair is not None and y <= best_y and (x, y) != best_pair:
            # Dominated unless it exactly duplicates the dominator.
            bx, by = best_pair
            if (bx > x or by > y):
                mask[idx] = False
                continue
        if y > best_y or best_pair is None:
            best_y = y
            best_pair = (x, y)
    return mask


def pareto_mask_3d(points: np.ndarray) -> np.ndarray:
    """Mask of weakly non-dominated rows of ``points`` (maximize all).

    Staircase sweep: rows are processed in decreasing order of the
    first coordinate; a sorted structure over (y, z) of all strictly
    better-x rows answers "does any earlier row weakly dominate (y, z)"
    in logarithmic time.  Duplicated rows are all kept.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError("points must be (N, 3)")
    n = len(points)
    if n == 0:
        return np.zeros(0, dtype=bool)

    order = np.lexsort((-points[:, 2], -points[:, 1], -points[:, 0]))
    mask = np.ones(n, dtype=bool)

    # Staircase over (y, z): list of (y, z) kept sorted by y ascending,
    # z strictly decreasing (maximal z for every y level).
    stair_y: list[float] = []
    stair_z: list[float] = []

    def stair_dominates(y: float, z: float) -> bool:
        """True if some staircase entry has y' >= y and z' >= z."""
        i = bisect_left(stair_y, y)
        # Entries at index >= i have y' >= y; z is decreasing in y, so
        # the best candidate z' among them is at index i... but ties of
        # y complicate direction; staircase keeps z strictly decreasing
        # so max z' for y' >= y is at the first index with y' >= y.
        return i < len(stair_y) and stair_z[i] >= z

    def stair_insert(y: float, z: float) -> None:
        if stair_dominates(y, z):
            return
        i = bisect_left(stair_y, y)
        # Remove entries with y' <= y and z' <= z (now redundant).
        j = i
        while j > 0 and stair_z[j - 1] <= z:
            j -= 1
        del stair_y[j:i]
        del stair_z[j:i]
        stair_y.insert(j, y)
        stair_z.insert(j, z)

    i = 0
    while i < n:
        # Group rows sharing the same x so strict-dominance in x holds
        # only against previous groups.
        j = i
        x = points[order[i], 0]
        group = []
        while j < n and points[order[j], 0] == x:
            group.append(order[j])
            j += 1
        # Check against strictly-better-x staircase.
        survivors = []
        for idx in group:
            y, z = points[idx, 1], points[idx, 2]
            if stair_dominates(y, z):
                mask[idx] = False
            else:
                survivors.append(idx)
        # Within the group (equal x) apply 2D weak dominance on (y, z).
        if len(survivors) > 1:
            ys = points[survivors, 1]
            zs = points[survivors, 2]
            sub = pareto_mask_2d(ys, zs)
            for k, idx in enumerate(survivors):
                if not sub[k]:
                    mask[idx] = False
        # Fold the group's survivors into the staircase.
        for idx in survivors:
            if mask[idx]:
                stair_insert(points[idx, 1], points[idx, 2])
        i = j
    return mask


@dataclass
class ProductParetoResult:
    """Pareto frontier of a cell x accelerator product space."""

    cell_indices: np.ndarray      # (P,) row index into the cell axis
    config_indices: np.ndarray    # (P,) column index into the config axis
    accuracy: np.ndarray          # (P,)
    latency_ms: np.ndarray        # (P,)
    area_mm2: np.ndarray          # (P,)

    @property
    def num_points(self) -> int:
        return len(self.cell_indices)

    def num_distinct_cells(self) -> int:
        return len(np.unique(self.cell_indices))

    def num_distinct_configs(self) -> int:
        return len(np.unique(self.config_indices))

    def objective_matrix(self) -> np.ndarray:
        """(P, 3) rows of ``(-area, -latency, accuracy)``."""
        return np.column_stack([-self.area_mm2, -self.latency_ms, self.accuracy])


def product_space_pareto(
    accuracy: np.ndarray,
    area_mm2: np.ndarray,
    latency_ms: np.ndarray,
) -> ProductParetoResult:
    """Exact Pareto frontier of the (cell x accelerator) product space.

    Parameters
    ----------
    accuracy:
        ``(Nc,)`` accuracy per cell (percent).
    area_mm2:
        ``(Nh,)`` area per accelerator config.
    latency_ms:
        ``(Nc, Nh)`` latency of every pair.

    All values must be finite; every caller passes finite arrays.  The
    front lists its points by config, then by ascending latency.
    """
    accuracy = np.asarray(accuracy, dtype=np.float64)
    area_mm2 = np.asarray(area_mm2, dtype=np.float64)
    latency_ms = np.asarray(latency_ms, dtype=np.float64)
    n_cells, n_cfg = latency_ms.shape
    if accuracy.shape != (n_cells,) or area_mm2.shape != (n_cfg,):
        raise ValueError("inconsistent shapes between accuracy/area/latency")

    # Stage 1: latency classes.  Only a class's smallest-area configs
    # can hold frontier pairs; they share one 2D staircase (maximize
    # accuracy, minimize latency).  Sorting the class's column by
    # latency and keeping rows whose accuracy matches the running
    # maximum keeps every candidate (weak-dominance survivors included).
    classes: dict[bytes, list[int]] = {}
    for h in range(n_cfg):
        classes.setdefault(latency_ms[:, h].tobytes(), []).append(h)
    staircases: dict[int, np.ndarray] = {}
    for members in classes.values():
        order = np.argsort(latency_ms[:, members[0]], kind="stable")
        acc_sorted = accuracy[order]
        rows = order[acc_sorted >= np.maximum.accumulate(acc_sorted)]
        areas = area_mm2[members]
        for h in np.asarray(members)[areas == areas.min()]:
            staircases[int(h)] = rows
    kept = sorted(staircases)
    cells = np.concatenate([staircases[h] for h in kept])
    cfgs = np.concatenate(
        [np.full(len(staircases[h]), h, dtype=np.int64) for h in kept]
    )

    # Stage 2: exact 3D maxima over the union of slice staircases.
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


def reward_ranked_points(
    front: ProductParetoResult, scenario, k: int = 100
) -> list[dict]:
    """Top-``k`` frontier points ranked by a scenario's reward.

    ``scenario`` is a :class:`~repro.core.reward.RewardConfig`;
    infeasible frontier points (NaN reward, per the epsilon-constraint
    masking) are excluded — these are the reference points Fig. 5
    plots against every strategy's discoveries.
    """
    from repro.core.reward import RewardFunction

    reward_fn = RewardFunction(scenario)
    rewards = reward_fn.reward_array(front.area_mm2, front.latency_ms, front.accuracy)
    order = np.argsort(-np.nan_to_num(rewards, nan=-np.inf))
    rows = []
    for idx in order[:k]:
        if np.isnan(rewards[idx]):
            break
        rows.append(
            {
                "reward": float(rewards[idx]),
                "accuracy": float(front.accuracy[idx]),
                "latency_ms": float(front.latency_ms[idx]),
                "area_mm2": float(front.area_mm2[idx]),
            }
        )
    return rows


def scenario_sweep(
    accuracy: np.ndarray,
    area_mm2: np.ndarray,
    latency_ms: np.ndarray,
    scenarios: dict,
    k: int = 100,
) -> dict[str, list[dict]]:
    """Reward-ranked Pareto points for every scenario in one sweep.

    The (cell x accelerator) frontier is computed once and re-ranked
    under each scenario of ``scenarios`` (name -> RewardConfig), so
    adding registry scenarios to the sweep costs one
    :func:`reward_ranked_points` pass each, not a frontier rebuild.
    """
    front = product_space_pareto(accuracy, area_mm2, latency_ms)
    return {
        name: reward_ranked_points(front, scenario, k)
        for name, scenario in scenarios.items()
    }
