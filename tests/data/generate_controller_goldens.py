"""Regenerate the REINFORCE controller goldens.

``controller_goldens.json`` pins what a change to the controller
(``repro.rl``) must not move, for the runs the batch-1 ask/tell goldens
do not cover:

* ``batch16/...``: md5 digests of the reward trace (float64 bytes) and
  of the visited (spec_hash, config, phase) sequence for the combined,
  phase and separate strategies at batch 16, over the three paper
  scenarios and seeds 0-2;
* ``threshold/...``: the same two digests for the threshold schedule at
  batch 1 and 8 over a short two-rung schedule;
* ``checkpoint/...``: the md5 of the ledger-encoded last checkpoint
  (``repro.parallel.ledger._dumps`` of the strategy state, as
  :class:`~repro.parallel.MemoryCheckpoint` stores it) for combined,
  phase and separate at batch 1 and 4 -- policy weights, Adam moments
  and baselines byte for byte.  ``checkpoint/phase-cnn-only/...`` stops
  inside the first CNN phase, so its HW trainer has never updated.

The goldens were generated before the controller was packed into one
parameter vector; ``tests/search/test_controller_goldens.py`` replays
every case through :func:`run_case` and compares.  Do not regenerate
casually: new goldens only prove self-consistency of the current code.

Run:  PYTHONPATH=src python tests/data/generate_controller_goldens.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.scenarios import PAPER_SCENARIOS, unconstrained
from repro.core.search_space import JointSearchSpace
from repro.experiments.common import load_bundle
from repro.experiments.search_study import make_bundle_evaluator
from repro.parallel import MemoryCheckpoint
from repro.search.combined import CombinedSearch
from repro.search.phase import PhaseSearch
from repro.search.separate import SeparateSearch
from repro.search.threshold_schedule import ThresholdRung, ThresholdScheduleSearch

GOLDENS = Path(__file__).resolve().parent / "controller_goldens.json"

SEEDS = (0, 1, 2)
BATCH16_STEPS = 80
CHECKPOINT_STEPS = 24

STRATEGY_FACTORIES = {
    "combined": lambda space, seed: CombinedSearch(space, seed=seed),
    "separate": lambda space, seed: SeparateSearch(space, seed=seed, cnn_fraction=0.6),
    "phase": lambda space, seed: PhaseSearch(
        space, seed=seed, cnn_phase_steps=10, hw_phase_steps=5
    ),
}

THRESHOLD_RUNGS = [ThresholdRung(2.0, 20, 40), ThresholdRung(8.0, 20, 40)]


def visit_digest(archive) -> str:
    """md5 over the visited (spec_hash, config_key, phase) sequence."""
    parts = []
    for e in archive.entries:
        spec_part = (
            e.spec.spec_hash() if e.spec is not None and e.spec.valid else "invalid"
        )
        parts.append(f"{spec_part}|{tuple(e.config.to_dict().values())}|{e.phase}")
    return hashlib.md5("\n".join(parts).encode()).hexdigest()


def trace_digests(result) -> dict[str, str]:
    trace = np.ascontiguousarray(result.reward_trace(), dtype=np.float64)
    return {
        "rewards": hashlib.md5(trace.tobytes()).hexdigest(),
        "visits": visit_digest(result.archive),
    }


def case_names() -> list[str]:
    names = [
        f"batch16/{strategy}/{scenario}/{seed}"
        for strategy in sorted(STRATEGY_FACTORIES)
        for scenario in sorted(PAPER_SCENARIOS)
        for seed in SEEDS
    ]
    names += [f"threshold/b{batch}/{seed}" for batch in (1, 8) for seed in SEEDS]
    names += [
        f"checkpoint/{strategy}/b{batch}"
        for strategy in (*sorted(STRATEGY_FACTORIES), "phase-cnn-only")
        for batch in (1, 4)
    ]
    return names


def run_case(name: str, bundle) -> dict[str, str]:
    """The digests of one golden case, computed by the current code."""
    space = JointSearchSpace(cell_encoding=bundle.cell_encoding)
    kind, *rest = name.split("/")
    if kind == "batch16":
        strategy, scenario, seed = rest
        evaluator = make_bundle_evaluator(
            bundle, PAPER_SCENARIOS[scenario](bundle.bounds)
        )
        search = STRATEGY_FACTORIES[strategy](space, int(seed))
        return trace_digests(search.run(evaluator, BATCH16_STEPS, batch_size=16))
    if kind == "threshold":
        batch, seed = rest
        evaluator = make_bundle_evaluator(bundle, unconstrained(bundle.bounds))
        search = ThresholdScheduleSearch(space, seed=int(seed), rungs=THRESHOLD_RUNGS)
        return trace_digests(search.run(evaluator, batch_size=int(batch[1:])))
    if kind == "checkpoint":
        strategy, batch = rest
        steps = CHECKPOINT_STEPS
        if strategy == "phase-cnn-only":
            strategy, steps = "phase", 8
        evaluator = make_bundle_evaluator(bundle, unconstrained(bundle.bounds))
        checkpoint = MemoryCheckpoint()
        STRATEGY_FACTORIES[strategy](space, 0).run(
            evaluator, steps, batch_size=int(batch[1:]), checkpoint=checkpoint
        )
        return {"checkpoint": hashlib.md5(checkpoint._blob.encode()).hexdigest()}
    raise ValueError(f"unknown golden case {name!r}")


def main() -> None:
    bundle = load_bundle(max_vertices=4)
    goldens = {}
    for name in case_names():
        goldens[name] = run_case(name, bundle)
        print(name, goldens[name])
    lines = [f"{json.dumps(name)}: {json.dumps(goldens[name])}" for name in sorted(goldens)]
    GOLDENS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(goldens)} cases")


if __name__ == "__main__":
    main()
