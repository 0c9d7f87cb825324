"""Benchmark the ledger-leased cluster backend against serial.

Runs the same two-job repeat grid twice — serial, then on the
``cluster`` backend with N forked local workers coordinating through a
fresh run ledger — asserts the outcomes are bit-identical, and reports
wall clock, points/sec, and the lease-table accounting (how tasks
spread across workers, how often leases were claimed).

The cluster backend exists for *elasticity* (external ``repro worker``
processes joining over a shared state dir), not raw single-host
speed; its single-host value proposition is process-backend-class
throughput plus crash-tolerant, resumable coordination.  With >= 2
usable cores the benchmark asserts cluster(Nw) delivers at least
``--min-speedup`` x serial throughput.

Run:  PYTHONPATH=src python benchmarks/bench_cluster.py [--workers 2]
"""

from __future__ import annotations

import argparse
import collections
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.evaluator import build_evaluator
from repro.core.scenarios import one_constraint, unconstrained
from repro.core.search_space import JointSearchSpace
from repro.experiments.common import load_bundle
from repro.parallel import RunLedger
from repro.search.random_search import RandomSearch
from repro.search.runner import RepeatJob, run_grid
from repro.utils.tables import format_markdown


def build_jobs(bundle) -> list[RepeatJob]:
    space = JointSearchSpace(cell_encoding=bundle.cell_encoding)
    jobs = []
    for name, factory in (("u", unconstrained), ("c1", one_constraint)):
        scenario = factory(bundle.bounds)
        jobs.append(
            RepeatJob(
                label=name,
                strategy_factory=lambda seed: RandomSearch(space, seed=seed),
                evaluator_factory=lambda sc=scenario: build_evaluator(
                    "database", sc, bundle=bundle, platform=bundle.platform
                ),
                cache_scenario=name,
            )
        )
    return jobs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--steps", type=int, default=400)
    parser.add_argument("--repeats", type=int, default=4)
    parser.add_argument("--max-vertices", type=int, default=4)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless cluster delivers at least this x serial "
        "throughput (default: report only; needs >= 2 usable cores "
        "to be meaningful)",
    )
    args = parser.parse_args()

    bundle = load_bundle(max_vertices=args.max_vertices)
    jobs = build_jobs(bundle)
    grid_kwargs = dict(
        num_steps=args.steps, num_repeats=args.repeats, master_seed=0
    )

    t0 = time.perf_counter()
    serial = run_grid(jobs, **grid_kwargs, backend="serial")
    t_serial = time.perf_counter() - t0

    ledger_path = (
        Path(tempfile.mkdtemp(prefix="bench_cluster_")) / "bench.ledger"
    )
    t0 = time.perf_counter()
    cluster = run_grid(
        jobs,
        **grid_kwargs,
        backend="cluster",
        workers=args.workers,
        ledger=ledger_path,
    )
    t_cluster = time.perf_counter() - t0

    for label in serial:
        for a, b in zip(serial[label].results, cluster[label].results):
            assert np.array_equal(
                a.reward_trace(), b.reward_trace(), equal_nan=True
            )

    total_points = len(jobs) * args.repeats * args.steps
    cpus = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    print(
        f"workload: {len(jobs)} jobs x {args.repeats} repeats x "
        f"{args.steps} steps (random strategy, "
        f"micro-{args.max_vertices} space), {args.workers} cluster "
        f"workers on {cpus} usable CPU(s)\n"
    )
    print(
        format_markdown(
            ["backend", "wall_clock_s", "points_per_s", "speedup"],
            [
                (
                    "serial",
                    round(t_serial, 2),
                    round(total_points / t_serial),
                    "1.00x",
                ),
                (
                    f"cluster x{args.workers}",
                    round(t_cluster, 2),
                    round(total_points / t_cluster),
                    f"{t_serial / t_cluster:.2f}x",
                ),
            ],
        )
    )

    ledger = RunLedger(ledger_path)
    rows = ledger.task_lease_rows()
    by_worker = collections.Counter(row["worker"] for row in rows)
    total_claims = sum(row["claims"] for row in rows)
    executions = ledger.executions()
    print(
        f"\nleases: {len(rows)} tasks, {total_claims} claims, "
        f"final holders: "
        + ", ".join(f"{w} x{n}" for w, n in sorted(by_worker.items()))
    )
    print(f"execution record: {executions}")
    print("cluster outcomes verified bit-identical to serial.")

    if args.min_speedup is not None:
        speedup = t_serial / t_cluster
        assert speedup >= args.min_speedup, (
            f"cluster x{args.workers} must reach {args.min_speedup:.2f}x "
            f"serial, got {speedup:.2f}x"
        )


if __name__ == "__main__":
    main()
