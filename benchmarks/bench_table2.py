"""T2: best discovered points vs ResNet/GoogLeNet on their best HW."""

import pytest

from benchmarks.conftest import run_once
from repro.core.study import run_study
from repro.experiments.common import Scale
from repro.experiments.fig7 import fig7_spec, run_fig7
from repro.experiments.table2 import run_table2


@pytest.fixture(scope="module")
def fig7(scale):
    # Table II needs enough search to find dominating points: at least
    # half the paper's per-rung valid-point targets.
    sizing = Scale(
        name=f"{scale.name}-table2",
        search_steps=scale.search_steps,
        num_repeats=scale.num_repeats,
        fig7_target_scale=max(scale.fig7_target_scale, 0.5),
    )
    return run_fig7(run_study(fig7_spec(sizing, seed=1), scale=sizing))


def test_table2_codesign_vs_baselines(benchmark, fig7):
    result = run_once(benchmark, lambda: run_table2(fig7))
    print("\n" + result.to_markdown())
    improvements = result.improvements()
    # Paper headline: Cod-1 beats ResNet on both accuracy and
    # perf/area (paper: +1.3% / +41%).
    assert "cod1" in improvements, "no point dominating the ResNet baseline found"
    assert improvements["cod1"]["accuracy_gain"] > 0
    assert improvements["cod1"]["perf_per_area_gain_pct"] > 0
    # Cod-2 vs GoogLeNet (paper: +0.5% / +3.3%): same direction.
    if "cod2" in improvements:
        assert improvements["cod2"]["accuracy_gain"] > 0
        assert improvements["cod2"]["perf_per_area_gain_pct"] > 0
