"""Benchmark the hardware-platform hot path: batched metric queries.

For every registered platform, measure the throughput (configurations
per second) of the two batched column-wise queries the evaluator and
the bundle builder lean on — ``batch_area_mm2`` and
``batch_network_latency_s`` — against the scalar per-config loop on a
sample, and assert the batch and scalar paths agree bit for bit on
that sample (the platform contract).

This captures the hardware side of the performance trajectory: a model
change that slows the vectorized path (or a platform whose batch
implementation quietly degrades to a python loop) shows up as a
throughput regression here before it shows up as a slow study.

Run:  PYTHONPATH=src python benchmarks/bench_platforms.py [--repeats 3]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.hw import build_platform, list_platforms
from repro.nasbench.compile import compile_cell_ops
from repro.nasbench.known_cells import resnet_cell
from repro.nasbench.skeleton import CIFAR10_SKELETON
from repro.utils.tables import format_markdown


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats (best-of)")
    parser.add_argument("--scalar-sample", type=int, default=32,
                        help="configs for the scalar-loop comparison")
    parser.add_argument("--json", type=Path, default=None, metavar="PATH",
                        help="also write the measured rates as JSON")
    args = parser.parse_args()

    ir = compile_cell_ops(resnet_cell(), CIFAR10_SKELETON)
    rows = []
    batched_report: dict[str, dict] = {}
    for name in list_platforms():
        platform = build_platform(name)
        space = platform.config_space()
        cols = space.columns()

        t_area = _best_of(args.repeats, lambda: platform.batch_area_mm2(cols))
        t_latency = _best_of(
            args.repeats, lambda: platform.batch_network_latency_s(ir, cols)
        )

        rng = np.random.default_rng(0)
        sample = [
            space.config_at(int(i))
            for i in rng.integers(0, space.size, args.scalar_sample)
        ]
        t_scalar = _best_of(
            args.repeats,
            lambda: [platform.network_latency_s(ir, c) for c in sample],
        )

        # The platform contract: batch == scalar, bit for bit.
        batch_area = platform.batch_area_mm2(cols)
        batch_latency = platform.batch_network_latency_s(ir, cols)
        for config in sample:
            index = space.index_of(config)
            assert batch_area[index] == platform.area_mm2(config), name
            assert batch_latency[index] == platform.network_latency_s(
                ir, config
            ), name

        batch_rate = space.size / t_latency
        scalar_rate = len(sample) / t_scalar
        batched_report[name] = {
            "configs": space.size,
            "batch_area_cfg_per_s": space.size / t_area,
            "batch_latency_cfg_per_s": batch_rate,
            "scalar_latency_cfg_per_s": scalar_rate,
            "batch_speedup": batch_rate / scalar_rate,
        }
        rows.append(
            (
                name,
                space.size,
                f"{space.size / t_area:,.0f}",
                f"{batch_rate:,.0f}",
                f"{scalar_rate:,.0f}",
                f"{batch_rate / scalar_rate:,.1f}x",
            )
        )

    print(
        format_markdown(
            [
                "platform",
                "configs",
                "batch area cfg/s",
                "batch latency cfg/s",
                "scalar latency cfg/s",
                "batch speedup",
            ],
            rows,
        )
    )
    print("\nbatch == scalar verified on the sampled configs for every platform.")
    if args.json is not None:
        args.json.write_text(
            json.dumps(
                {
                    "benchmark": "bench_platforms",
                    "repeats": args.repeats,
                    "scalar_sample": args.scalar_sample,
                    "batched": batched_report,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"wrote JSON report to {args.json}")


if __name__ == "__main__":
    main()
