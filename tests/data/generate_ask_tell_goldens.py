"""Regenerate the ask/tell equivalence goldens.

The goldens in ``ask_tell_goldens.npz`` / ``ask_tell_goldens.json``
were produced by running THIS script against the legacy per-point
search loops (commit ``bd75839``, before the ask/tell refactor).  They
freeze, for every (strategy, scenario, seed) cell:

* the full per-step reward trace (float64, bit-exact), and
* an md5 digest over the visited (spec_hash, config_key) sequence,

so the equivalence suite can assert that the batched engine at
``batch_size=1`` reproduces the legacy trace exactly — same rewards,
same archive, same RNG stream.

Do not regenerate casually: new goldens only prove self-consistency of
the current code, not equivalence with the pre-refactor behaviour.

Run:  PYTHONPATH=src python tests/data/generate_ask_tell_goldens.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.evaluator import build_evaluator
from repro.core.scenarios import PAPER_SCENARIOS
from repro.core.search_space import JointSearchSpace
from repro.experiments.common import load_bundle
from repro.search.combined import CombinedSearch
from repro.search.evolution import EvolutionSearch
from repro.search.phase import PhaseSearch
from repro.search.random_search import RandomSearch
from repro.search.separate import SeparateSearch

HERE = Path(__file__).resolve().parent

NUM_STEPS = 40
SEEDS = (0, 1, 2)

#: Strategy name -> factory(space, seed).  Hyper-parameters are sized so
#: every code path (evolution's evolve phase, phase boundaries, the
#: separate stage split) is exercised inside NUM_STEPS.
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
    """md5 over the visited (spec_hash, config_key) step sequence."""
    parts = []
    for e in archive.entries:
        spec_part = e.spec.spec_hash() if e.spec is not None and e.spec.valid else "invalid"
        parts.append(f"{spec_part}|{tuple(e.config.to_dict().values())}|{e.phase}")
    return hashlib.md5("\n".join(parts).encode()).hexdigest()


def main() -> None:
    bundle = load_bundle(max_vertices=4)
    space = JointSearchSpace(cell_encoding=bundle.cell_encoding)
    arrays: dict[str, np.ndarray] = {}
    digests: dict[str, str] = {}
    for scenario_name, scenario_factory in PAPER_SCENARIOS.items():
        scenario = scenario_factory(bundle.bounds)
        for strategy_name, factory in STRATEGY_FACTORIES.items():
            for seed in SEEDS:
                evaluator = build_evaluator(
                    "database", scenario, bundle=bundle, platform=bundle.platform
                )
                result = factory(space, seed).run(evaluator, NUM_STEPS)
                key = f"{strategy_name}__{scenario_name}__{seed}"
                arrays[key] = result.reward_trace()
                digests[key] = visit_digest(result.archive)
                print(key, digests[key], round(float(np.nansum(arrays[key])), 6))
    np.savez_compressed(HERE / "ask_tell_goldens.npz", **arrays)
    (HERE / "ask_tell_goldens.json").write_text(
        json.dumps(
            {"num_steps": NUM_STEPS, "seeds": list(SEEDS), "digests": digests},
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {len(arrays)} traces")


if __name__ == "__main__":
    main()
