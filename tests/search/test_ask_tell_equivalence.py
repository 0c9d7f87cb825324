"""Equivalence suite: the ask/tell engine at batch size 1 reproduces the
legacy per-point search traces exactly.

The golden traces in ``tests/data/ask_tell_goldens.npz`` were generated
from the pre-refactor per-point loops (see
``tests/data/generate_ask_tell_goldens.py`` for provenance); every
(strategy, scenario, seed) cell must match them bit for bit — same
rewards, same visited (spec, config, phase) sequence, hence the same
RNG stream.

A second layer (no goldens needed) asserts that evaluating each batch
in one ``evaluate_batch`` call and evaluating its pairs one at a time
give the same search, for every *registry* scenario, including the
parametric ``perf-area>=N`` family the goldens don't cover.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.evaluator import build_evaluator
from repro.core.scenarios import PAPER_SCENARIOS, get_scenario, list_scenarios
from repro.core.search_space import JointSearchSpace
from repro.search.combined import CombinedSearch
from repro.search.evolution import EvolutionSearch
from repro.search.phase import PhaseSearch
from repro.search.random_search import RandomSearch
from repro.search.separate import SeparateSearch

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

NUM_STEPS = 40
SEEDS = (0, 1, 2)

#: Must stay in sync with tests/data/generate_ask_tell_goldens.py —
#: the goldens freeze the legacy behaviour of exactly these setups.
STRATEGY_FACTORIES = {
    "random": lambda space, seed: RandomSearch(space, seed=seed),
    "evolution": lambda space, seed: EvolutionSearch(
        space, seed=seed, population_size=8, tournament_size=3
    ),
    "combined": lambda space, seed: CombinedSearch(space, seed=seed),
    "separate": lambda space, seed: SeparateSearch(space, seed=seed, cnn_fraction=0.6),
    "phase": lambda space, seed: PhaseSearch(
        space, seed=seed, cnn_phase_steps=10, hw_phase_steps=5
    ),
}


def visit_digest(archive) -> str:
    """md5 over the visited (spec_hash, config_key, phase) sequence."""
    parts = []
    for e in archive.entries:
        spec_part = (
            e.spec.spec_hash() if e.spec is not None and e.spec.valid else "invalid"
        )
        parts.append(f"{spec_part}|{tuple(e.config.to_dict().values())}|{e.phase}")
    return hashlib.md5("\n".join(parts).encode()).hexdigest()


@pytest.fixture(scope="module")
def goldens():
    arrays = np.load(DATA_DIR / "ask_tell_goldens.npz")
    meta = json.loads((DATA_DIR / "ask_tell_goldens.json").read_text())
    assert meta["num_steps"] == NUM_STEPS and tuple(meta["seeds"]) == SEEDS
    return arrays, meta["digests"]


@pytest.fixture(scope="module")
def space(micro4_bundle):
    return JointSearchSpace(cell_encoding=micro4_bundle.cell_encoding)


@pytest.mark.slow
class TestLegacyGoldens:
    """Batch-size-1 runs are bit-identical to the pre-refactor loops."""

    @pytest.mark.parametrize("strategy_name", sorted(STRATEGY_FACTORIES))
    @pytest.mark.parametrize("scenario_name", sorted(PAPER_SCENARIOS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_trace_matches_golden(
        self, micro4_bundle, space, goldens, strategy_name, scenario_name, seed
    ):
        arrays, digests = goldens
        scenario = PAPER_SCENARIOS[scenario_name](micro4_bundle.bounds)
        evaluator = build_evaluator(
            "database", scenario, bundle=micro4_bundle, platform=micro4_bundle.platform
        )
        strategy = STRATEGY_FACTORIES[strategy_name](space, seed)
        result = strategy.run(evaluator, NUM_STEPS, batch_size=1)
        key = f"{strategy_name}__{scenario_name}__{seed}"
        assert np.array_equal(
            result.reward_trace(), arrays[key], equal_nan=True
        ), "reward trace diverged from the legacy per-point loop"
        assert visit_digest(result.archive) == digests[key], (
            "visited (spec, config, phase) sequence diverged from the "
            "legacy per-point loop"
        )


class TestBatchPathAgreesWithPointwise:
    """One evaluate_batch call per batch equals pair-by-pair evaluation.

    Covers every registry scenario (parametric threshold family
    included), so scenarios without goldens still get an exactness
    guarantee: the batch evaluation layer (in-batch dedupe, shared
    result objects) never changes a trace.
    """

    @pytest.mark.parametrize("strategy_name", sorted(STRATEGY_FACTORIES))
    @pytest.mark.parametrize("scenario_name", list_scenarios())
    def test_batched_run_equals_pointwise_evaluate(
        self, micro4_bundle, space, strategy_name, scenario_name
    ):
        scenario = get_scenario(scenario_name, micro4_bundle.bounds)

        def run(pointwise):
            evaluator = build_evaluator(
                "database",
                scenario,
                bundle=micro4_bundle,
                platform=micro4_bundle.platform,
            )
            if pointwise:
                batch = evaluator.evaluate_batch
                evaluator.evaluate_batch = lambda pairs: [
                    batch([pair])[0] for pair in pairs
                ]
            strategy = STRATEGY_FACTORIES[strategy_name](space, seed=3)
            return strategy.run(evaluator, 15, batch_size=4)

        batched = run(pointwise=False)
        pointwise = run(pointwise=True)
        assert np.array_equal(
            batched.reward_trace(), pointwise.reward_trace(), equal_nan=True
        )
        assert visit_digest(batched.archive) == visit_digest(pointwise.archive)
