"""Benchmark the learned hardware-cost surrogates against the exact models.

For each registered platform, build its learned twin as two-tier
search does (fitting or loading the artifact) and measure points/sec
on a config sample three ways — the exact scalar loop, the exact
batched path, and the surrogate batched path — for both area and
network latency.  Alongside raw throughput, report the surrogate's
Spearman rank correlation against the exact model on the sampled
configs: the two-tier search only uses surrogate *rankings* to pick
which proposals get exact scoring, so rank fidelity (not absolute
error) is the number that decides search quality.

Gates (both on by default, tunable/disabled via flags):

* rank correlation on the latency sample must clear ``--min-rank-corr``
  (default 0.90, matching the latency error budget);
* on dac2020-scaled, the surrogate batched latency path must deliver at
  least ``--min-speedup`` (default 10x) the exact *scalar* throughput —
  the headline that makes surrogate-ranked proposal filtering worth
  the approximation.

Run:  PYTHONPATH=src python benchmarks/bench_surrogate.py [--sample 2048]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.hw import SurrogatePlatform, build_platform, list_platforms
from repro.hw.surrogate import spearman_rank_correlation, surrogate_model_for
from repro.nasbench.compile import compile_cell_ops
from repro.nasbench.known_cells import resnet_cell
from repro.nasbench.skeleton import CIFAR10_SKELETON
from repro.utils.tables import format_markdown

#: The acceptance platform for the speedup gate: big enough that the
#: scalar loop hurts, and the platform dac2020 studies actually sweep.
GATE_PLATFORM = "dac2020-scaled"


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
    parser.add_argument("--sample", type=int, default=2048,
                        help="configs for the batched comparison")
    parser.add_argument("--scalar-sample", type=int, default=48,
                        help="configs for the exact scalar loop")
    parser.add_argument("--min-rank-corr", type=float, default=0.90,
                        help="fail below this latency rank correlation "
                             "(negative disables the gate)")
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help=f"fail unless surrogate batch beats the exact "
                             f"scalar loop by this factor on {GATE_PLATFORM} "
                             "(non-positive disables the gate)")
    parser.add_argument("--json", type=Path, default=None, metavar="PATH",
                        help="also write the measured rates as JSON")
    args = parser.parse_args()

    ir = compile_cell_ops(resnet_cell(), CIFAR10_SKELETON)
    rows = []
    report: dict[str, dict] = {}
    for name in list_platforms():
        base = build_platform(name)
        surrogate = SurrogatePlatform(base, surrogate_model_for(base))
        space = base.config_space()

        rng = np.random.default_rng(0)
        index = rng.integers(0, space.size, min(args.sample, space.size))
        full = space.columns()
        cols = {key: values[index] for key, values in full.items()}
        scalar_configs = [
            space.config_at(int(i)) for i in index[: args.scalar_sample]
        ]

        t_exact_scalar = _best_of(
            args.repeats,
            lambda: [base.network_latency_s(ir, c) for c in scalar_configs],
        )
        t_exact_batch = _best_of(
            args.repeats, lambda: base.batch_network_latency_s(ir, cols)
        )
        t_sur_batch = _best_of(
            args.repeats, lambda: surrogate.batch_network_latency_s(ir, cols)
        )
        t_sur_area = _best_of(
            args.repeats, lambda: surrogate.batch_area_mm2(cols)
        )

        exact_latency = base.batch_network_latency_s(ir, cols)
        sur_latency = surrogate.batch_network_latency_s(ir, cols)
        rank_corr = spearman_rank_correlation(exact_latency, sur_latency)
        area_corr = spearman_rank_correlation(
            base.batch_area_mm2(cols), surrogate.batch_area_mm2(cols)
        )

        n = len(index)
        exact_scalar_rate = len(scalar_configs) / t_exact_scalar
        exact_batch_rate = n / t_exact_batch
        sur_batch_rate = n / t_sur_batch
        report[name] = {
            "configs_sampled": n,
            "exact_scalar_latency_cfg_per_s": exact_scalar_rate,
            "exact_batch_latency_cfg_per_s": exact_batch_rate,
            "surrogate_batch_latency_cfg_per_s": sur_batch_rate,
            "surrogate_batch_area_cfg_per_s": n / t_sur_area,
            "surrogate_vs_exact_scalar": sur_batch_rate / exact_scalar_rate,
            "surrogate_vs_exact_batch": sur_batch_rate / exact_batch_rate,
            "latency_rank_corr": rank_corr,
            "area_rank_corr": area_corr,
        }
        rows.append(
            (
                name,
                n,
                f"{exact_scalar_rate:,.0f}",
                f"{exact_batch_rate:,.0f}",
                f"{sur_batch_rate:,.0f}",
                f"{sur_batch_rate / exact_scalar_rate:,.0f}x",
                f"{rank_corr:.4f}",
            )
        )

    print(
        format_markdown(
            [
                "platform",
                "sampled",
                "exact scalar cfg/s",
                "exact batch cfg/s",
                "surrogate batch cfg/s",
                "vs exact scalar",
                "latency rank corr",
            ],
            rows,
        )
    )
    print(
        "\nrank correlation is Spearman between surrogate and exact latency "
        "on the sampled configs — the two-tier filter only consumes ranks."
    )

    if args.json is not None:
        args.json.write_text(
            json.dumps(
                {
                    "benchmark": "bench_surrogate",
                    "repeats": args.repeats,
                    "platforms": report,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"wrote JSON report to {args.json}")

    if args.min_rank_corr >= 0:
        worst = min(report, key=lambda n: report[n]["latency_rank_corr"])
        corr = report[worst]["latency_rank_corr"]
        assert corr >= args.min_rank_corr, (
            f"latency rank correlation {corr:.4f} on {worst} below the "
            f"required {args.min_rank_corr:.2f} floor"
        )
        print(
            f"rank-correlation floor {args.min_rank_corr:.2f} met "
            f"(worst: {worst} at {corr:.4f})"
        )
    if args.min_speedup > 0 and GATE_PLATFORM in report:
        ratio = report[GATE_PLATFORM]["surrogate_vs_exact_scalar"]
        assert ratio >= args.min_speedup, (
            f"surrogate batch vs exact scalar on {GATE_PLATFORM} is "
            f"{ratio:.1f}x, below the required {args.min_speedup:.0f}x"
        )
        print(
            f"speedup floor met: surrogate batch is {ratio:,.0f}x the exact "
            f"scalar loop on {GATE_PLATFORM}"
        )


if __name__ == "__main__":
    main()
