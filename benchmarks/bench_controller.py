"""Benchmark the REINFORCE controller's sample and update in one process.

Times ``ReinforceTrainer.sample_batch`` and ``.update_batch`` step by
step on the joint search space's controller (hidden size 64, embedding
32, default :class:`~repro.rl.reinforce.ReinforceConfig`) for four
cases: the 21-token micro-5 space and the 34-token default space, each
at batch 1 and 16.  Every case runs ``WARMUP_STEPS`` untimed steps and
then ``--steps`` timed ones, and reports the median and quartiles of each
call in milliseconds.  The reward of a rollout is a fixed function of
its actions, so a run is deterministic: each case also prints an md5
over every sampled action, the final ``theta``, both Adam moments and
the baseline.  Two versions of the controller that keep its bits print
the same digests.

BLAS is pinned to one thread, as in perfbench.  End-to-end layer times
from a traced perfbench run swing with run order; this measures the
controller alone, in one process, so a change to it can be quoted.

Run:  PYTHONPATH=src python benchmarks/bench_controller.py [--steps 400] [--json PATH]
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy loads, so pin it first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from repro.core.search_space import JointSearchSpace
from repro.nasbench.encoding import CellEncoding
from repro.rl.policy import SequencePolicy
from repro.rl.reinforce import ReinforceTrainer
from repro.utils.tables import format_markdown

#: case name -> (cell max_vertices, batch size)
CASES = {
    "21 tokens, batch 1": (5, 1),
    "21 tokens, batch 16": (5, 16),
    "34 tokens, batch 1": (7, 1),
    "34 tokens, batch 16": (7, 16),
}

#: Untimed steps before each case's timed ones.
WARMUP_STEPS = 20


def quartiles(samples_ns: list[int]) -> dict[str, float]:
    """Median and quartiles of ``samples_ns``, in milliseconds."""
    q1, median, q3 = np.percentile(np.asarray(samples_ns) / 1e6, [25, 50, 75])
    return {"median_ms": float(median), "q1_ms": float(q1), "q3_ms": float(q3)}


def run_case(max_vertices: int, batch_size: int, steps: int) -> dict:
    """Time ``steps`` sample/update pairs after ``WARMUP_STEPS`` untimed ones."""
    space = JointSearchSpace(cell_encoding=CellEncoding(max_vertices=max_vertices))
    trainer = ReinforceTrainer(SequencePolicy(space.vocab_sizes, seed=0))
    rng = np.random.default_rng(0)
    weights = np.arange(1, len(space.vocab_sizes) + 1)
    digest = hashlib.md5()
    sample_ns: list[int] = []
    update_ns: list[int] = []
    for step in range(WARMUP_STEPS + steps):
        t0 = time.perf_counter_ns()
        batch = trainer.sample_batch(rng, batch_size)
        t1 = time.perf_counter_ns()
        rewards = np.cos(0.37 * (batch.actions @ weights))
        t2 = time.perf_counter_ns()
        trainer.update_batch(batch, rewards)
        t3 = time.perf_counter_ns()
        digest.update(batch.actions.tobytes())
        if step >= WARMUP_STEPS:
            sample_ns.append(t1 - t0)
            update_ns.append(t3 - t2)
    for array in (trainer.policy.theta, trainer.optimizer.m, trainer.optimizer.v):
        digest.update(array.tobytes())
    digest.update(np.float64(trainer.baseline).tobytes())
    return {
        "tokens": len(space.vocab_sizes),
        "batch_size": batch_size,
        "steps": steps,
        "sample": quartiles(sample_ns),
        "update": quartiles(update_ns),
        "step": quartiles([s + u for s, u in zip(sample_ns, update_ns)]),
        "md5": digest.hexdigest(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--steps", type=int, default=400, help="timed steps per case")
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write every case's timings and digest as JSON",
    )
    args = parser.parse_args()

    results = {
        name: run_case(max_vertices, batch_size, args.steps)
        for name, (max_vertices, batch_size) in CASES.items()
    }
    rows = []
    for name, result in results.items():
        sample, update, step = result["sample"], result["update"], result["step"]
        rows.append(
            (
                name,
                f"{sample['median_ms']:.3f} ({sample['q1_ms']:.3f}-{sample['q3_ms']:.3f})",
                f"{update['median_ms']:.3f} ({update['q1_ms']:.3f}-{update['q3_ms']:.3f})",
                f"{step['median_ms']:.3f}",
                result["md5"],
            )
        )
    print(f"Controller step, median (quartiles) over {args.steps} steps, one BLAS thread")
    print()
    print(
        format_markdown(
            ["case", "sample_batch ms", "update_batch ms", "step ms", "md5"], rows
        )
    )
    if args.json is not None:
        args.json.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"wrote JSON report to {args.json}")


if __name__ == "__main__":
    main()
