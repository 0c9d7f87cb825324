"""F6: reward-vs-steps curves per strategy and scenario."""

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.core.study import replace_execution, run_study
from repro.experiments.fig6 import run_fig6
from repro.experiments.presets import get_preset


@pytest.fixture(scope="module")
def study(bundle, scale):
    spec = replace_execution(get_preset("fig6"), master_seed=1)
    return run_study(spec, bundle=bundle, scale=scale)


def test_fig6_reward_curves(benchmark, study):
    result = run_once(benchmark, lambda: run_fig6(study=study))
    print("\n" + result.to_markdown())
    finals = result.final_rewards()
    for scenario, by_strategy in finals.items():
        for strategy, value in by_strategy.items():
            assert np.isfinite(value), (scenario, strategy)
    # Paper shape: the RL strategies end with a positive mean reward in
    # the unconstrained scenario (rewards are in (0, 1) when feasible).
    assert finals["unconstrained"]["combined"] > 0.0
