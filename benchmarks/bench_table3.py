"""T3: accelerator parameters of the best discovered points."""

import pytest

from benchmarks.conftest import run_once
from repro.core.study import run_study
from repro.experiments.common import Scale
from repro.experiments.fig7 import fig7_spec, run_fig7
from repro.experiments.table3 import run_table3


@pytest.fixture(scope="module")
def fig7(scale):
    sizing = Scale(
        name=f"{scale.name}-table3",
        search_steps=scale.search_steps,
        num_repeats=scale.num_repeats,
        fig7_target_scale=max(scale.fig7_target_scale, 0.5),
    )
    return run_fig7(run_study(fig7_spec(sizing, seed=1), scale=sizing))


def test_table3_discovered_hw(benchmark, fig7):
    result = run_once(benchmark, lambda: run_table3(fig7))
    print("\n" + result.to_markdown())
    rows = result.rows()
    assert len(rows) == 5
    # Paper shape: discovered designs use a large convolution engine.
    if fig7.cod1 is not None:
        assert fig7.cod1.config.total_conv_dsp >= 256
