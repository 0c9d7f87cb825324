"""F7: CIFAR-100 codesign with the rising perf/area threshold."""

import pytest

from benchmarks.conftest import run_once
from repro.core.study import run_study
from repro.experiments.fig7 import fig7_spec, run_fig7


@pytest.fixture(scope="module")
def fig7(scale):
    return run_fig7(run_study(fig7_spec(scale, seed=0), scale=scale))


def test_fig7_threshold_search(benchmark, fig7):
    result = run_once(benchmark, lambda: fig7)
    print("\n" + result.to_markdown())
    # Every rung reports top points meeting its constraint.
    for threshold, entries in result.top10_per_threshold.items():
        for entry in entries:
            assert entry.metrics.perf_per_area >= threshold
    # Training budget was charged.
    assert result.gpu_hours > 0
    assert result.unique_cells_trained > 5
