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
  inside the first CNN phase, so its HW trainer has never updated;
* ``checkpoint/threshold/...``: the number of checkpoints the threshold
  schedule saves and the md5 over every one of them in order (not only
  the last), at batch 1, 4 and 8, at cadences 1, 3 and 7, under a
  ``num_steps`` cap, and over a schedule whose every rung runs to
  ``max_steps`` -- the rung cursor and per-rung archives byte for byte;
* ``fig7/...``: the reward-trace and visit digests of the Section IV
  flow -- the ``fig7`` preset's threshold schedule scored by the
  ``cifar100-trainer`` source over the default 34-token
  :class:`~repro.core.search_space.JointSearchSpace` (7-vertex cells),
  run as :func:`~repro.core.study.run_study` runs its one repeat -- at
  batch 1 and 4, seeds 0 and 1.  ``fig7/b1/0`` checkpoints every batch
  and also pins the number of saves and the md5 over every one of them.

The goldens were generated before the controller was packed into one
parameter vector (the ``checkpoint/threshold`` cases before the
schedule moved onto the shared run driver, the ``fig7`` cases before
the controller's hot path was rewritten);
``tests/search/test_controller_goldens.py`` replays every case through
:func:`run_case` and compares.  Do not regenerate casually: new goldens
only prove self-consistency of the current code.

Run:  PYTHONPATH=src python tests/data/generate_controller_goldens.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.evaluator import build_evaluator
from repro.core.scenarios import PAPER_SCENARIOS, unconstrained
from repro.core.search_space import JointSearchSpace
from repro.core.study import build_study
from repro.experiments.common import Scale, load_bundle
from repro.experiments.fig7 import fig7_spec
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
#: Every rung of this schedule runs to ``max_steps``.
FULL_RUNGS = [ThresholdRung(2.0, 38, 40), ThresholdRung(40.0, 40, 40)]

#: ``checkpoint/threshold/<case>`` -> (rungs, batch_size,
#: checkpoint_every, num_steps).
THRESHOLD_CHECKPOINT_RUNS = {
    "b1-every1": (THRESHOLD_RUNGS, 1, 1, None),
    "b8-every1": (THRESHOLD_RUNGS, 8, 1, None),
    "b8-every3": (THRESHOLD_RUNGS, 8, 3, None),
    "b4-steps30": (THRESHOLD_RUNGS, 4, 1, 30),
    "full-b4-every1": (FULL_RUNGS, 4, 1, None),
    "full-b1-every7": (FULL_RUNGS, 1, 7, None),
}

#: The rung ladder of the ``fig7/...`` cases: two rungs, so every run
#: crosses a threshold change.
FIG7_RUNGS = [ThresholdRung(2.0, 30, 60), ThresholdRung(16.0, 30, 60)]
#: The ``fig7/...`` case that also pins every checkpoint it saves.
FIG7_CHECKPOINT_CASE = "fig7/b1/0"


class SaveLog(MemoryCheckpoint):
    """A :class:`MemoryCheckpoint` that keeps every blob it saves."""

    def __init__(self) -> None:
        super().__init__()
        self.blobs: list[str] = []

    def save(self, state: dict) -> None:
        super().save(state)
        self.blobs.append(self._blob)

    def checkpoint(self, label: str, repeat: int) -> "SaveLog":
        """Stand in for a ledger: every task saves into this log."""
        return self

    def digests(self) -> dict[str, str | int]:
        """The number of saves and the md5 over all of them, in order."""
        digest = hashlib.md5()
        for blob in self.blobs:
            digest.update(blob.encode() + b"\n")
        return {"saves": len(self.blobs), "checkpoints": digest.hexdigest()}


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
    names += [f"checkpoint/threshold/{case}" for case in THRESHOLD_CHECKPOINT_RUNS]
    names += [f"fig7/b{batch}/{seed}" for batch in (1, 4) for seed in (0, 1)]
    return names


def run_fig7_case(name: str) -> dict[str, str | int]:
    """One ``fig7/b<batch>/<seed>`` case, run as ``run_study`` runs it."""
    batch, seed = name.split("/")[1:]
    spec = fig7_spec(Scale.named("smoke"), seed=int(seed), rungs=FIG7_RUNGS)
    (job,) = build_study(spec).jobs
    log = SaveLog() if name == FIG7_CHECKPOINT_CASE else None
    result = job.run(
        0,
        num_steps=spec.execution.num_steps,
        master_seed=int(seed),
        batch_size=int(batch[1:]),
        checkpoint_every=1,
        ledger=log,
    )
    digests = trace_digests(result)
    if log is not None:
        digests.update(log.digests())
    return digests


def run_case(name: str, bundle) -> dict[str, str | int]:
    """The digests of one golden case, computed by the current code."""
    space = JointSearchSpace(cell_encoding=bundle.cell_encoding)
    kind, *rest = name.split("/")
    if kind == "fig7":
        return run_fig7_case(name)
    if kind == "batch16":
        strategy, scenario, seed = rest
        evaluator = build_evaluator(
            "database",
            PAPER_SCENARIOS[scenario](bundle.bounds),
            bundle=bundle,
            platform=bundle.platform,
        )
        search = STRATEGY_FACTORIES[strategy](space, int(seed))
        return trace_digests(search.run(evaluator, BATCH16_STEPS, batch_size=16))
    if kind == "threshold":
        batch, seed = rest
        evaluator = build_evaluator(
            "database",
            unconstrained(bundle.bounds),
            bundle=bundle,
            platform=bundle.platform,
        )
        search = ThresholdScheduleSearch(space, seed=int(seed), rungs=THRESHOLD_RUNGS)
        return trace_digests(search.run(evaluator, batch_size=int(batch[1:])))
    if name.startswith("checkpoint/threshold/"):
        rungs, batch_size, every, num_steps = THRESHOLD_CHECKPOINT_RUNS[rest[1]]
        evaluator = build_evaluator(
            "database",
            unconstrained(bundle.bounds),
            bundle=bundle,
            platform=bundle.platform,
        )
        log = SaveLog()
        ThresholdScheduleSearch(space, seed=0, rungs=rungs).run(
            evaluator,
            num_steps,
            batch_size=batch_size,
            checkpoint=log,
            checkpoint_every=every,
        )
        return log.digests()
    if kind == "checkpoint":
        strategy, batch = rest
        steps = CHECKPOINT_STEPS
        if strategy == "phase-cnn-only":
            strategy, steps = "phase", 8
        evaluator = build_evaluator(
            "database",
            unconstrained(bundle.bounds),
            bundle=bundle,
            platform=bundle.platform,
        )
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
