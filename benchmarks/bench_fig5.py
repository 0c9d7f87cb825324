"""F5: search strategies vs the top-100 reward-ranked Pareto points."""

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.core.study import run_study
from repro.experiments.fig5 import run_fig5
from repro.experiments.presets import get_preset


@pytest.fixture(scope="module")
def study(bundle, scale):
    return run_study(get_preset("fig5"), bundle=bundle, scale=scale)


def test_fig5_search_vs_pareto(benchmark, study):
    result = run_once(benchmark, lambda: run_fig5(study=study))
    print("\n" + result.to_markdown())
    hit = result.constraint_hit_rates()
    # Paper shape: combined/phase handle constraints at least as well
    # as the HW-blind separate baseline.
    for scenario in ("1-constraint", "2-constraints"):
        best_joint = max(hit[scenario]["combined"], hit[scenario]["phase"])
        assert best_joint >= hit[scenario]["separate"] - 0.34
    # Every strategy produced at least one repeat somewhere.
    assert any(rate > 0 for rates in hit.values() for rate in rates.values())
