"""The equivalence matrix in tier-1: a pairwise covering table of cells.

Every pair of axis values of ``equivalence.AXES`` meets in at least one
cell below, except (served, none), which no cell can hold.  The first
nine cells are such a table.  They kill local runs only without a
cache, so the last three kill a process run and a serial one over a
cold cache, which the kill leaves half filled, and a cluster worker
over a warm one at batch 16.  Each cell must equal its reference cell
(``equivalence.Matrix.check``); the full product of 180 cells runs
from ``equivalence.py`` by path.
"""

import itertools

import pytest

from equivalence import (  # noqa: F401  (matrix is a fixture)
    AXES,
    FULL_PRODUCT,
    NUM_REPEATS,
    NUM_STEPS,
    STRATEGIES,
    Cell,
    matrix,
    rerun_evaluations,
    uncovered_pairs,
)

TABLE = [
    Cell("serial", 1, "none", "killed", "local", "exact"),
    Cell("serial", 4, "cold", "uninterrupted", "local", "two-tier"),
    Cell("serial", 16, "warm", "killed", "served", "exact"),
    Cell("process", 1, "cold", "killed", "served", "two-tier"),
    Cell("process", 4, "warm", "uninterrupted", "served", "exact"),
    Cell("process", 16, "none", "uninterrupted", "local", "two-tier"),
    Cell("cluster", 1, "warm", "uninterrupted", "local", "two-tier"),
    Cell("cluster", 4, "none", "killed", "local", "exact"),
    Cell("cluster", 16, "cold", "uninterrupted", "served", "exact"),
    Cell("process", 4, "cold", "killed", "local", "exact"),
    Cell("cluster", 16, "warm", "killed", "local", "two-tier"),
    Cell("serial", 16, "cold", "killed", "local", "two-tier"),
]


def test_table_covers_every_feasible_pair():
    assert uncovered_pairs(TABLE) == set()


def test_table_cells_are_distinct_cells_of_the_product():
    # A misspelt axis value would run as some other cell unnoticed.
    assert all(cell in FULL_PRODUCT for cell in TABLE)
    assert len(set(TABLE)) == len(TABLE)


def test_full_product_drops_only_served_without_cache():
    every = set(map(Cell._make, itertools.product(*AXES.values())))
    dropped = every - set(FULL_PRODUCT)
    assert len(FULL_PRODUCT) == 180
    assert {(cell.front, cell.cache) for cell in dropped} == {("served", "none")}


@pytest.mark.parametrize("backend", AXES["backend"])
def test_rerun_counter_sees_every_batch(backend, tmp_path):
    """Counted on a fresh ledger, every process's batches add up.

    So the zero a finished ledger's re-run must count is no blind spot
    of forked workers: each task is one batch per ask/tell step, two in
    two-tier mode (the screen, then the exact half).
    """
    cell = Cell(backend, 4, "none", "uninterrupted", "local", "two-tier")
    steps = -(-NUM_STEPS // cell.batch)
    expected = len(STRATEGIES) * NUM_REPEATS * steps * 2
    assert rerun_evaluations(cell, tmp_path / "fresh.ledger") == expected


def test_digests_tell_every_result_apart(matrix):  # noqa: F811
    # Equal digests show equal results only if unequal ones differ.
    for batch in AXES["batch"]:
        for mode in AXES["mode"]:
            cell = Cell("serial", batch, "none", "uninterrupted", "local", mode)
            digests = matrix.reference(cell)
            assert len(set(digests.values())) == len(STRATEGIES) * NUM_REPEATS


@pytest.mark.parametrize("cell", TABLE, ids=lambda cell: cell.id)
def test_cell_equals_its_reference(matrix, cell, tmp_path):  # noqa: F811
    matrix.check(cell, tmp_path)
