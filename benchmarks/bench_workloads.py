"""Benchmark the transformer workload on the tiled-GEMM charm-u50.

Three sections, each a claim the ``repro.workloads`` subsystem makes:

1. **Batched GEMM throughput** — for each canonical encoder (bert-tiny
   through bert-base), measure configs/sec scoring its GEMM IR on
   ``charm-u50`` via the exact scalar loop vs the exact batched
   column-wise path.  The batched path is what makes surrogate
   *fitting* affordable on a 393k-config space.
2. **Sampled-surrogate fidelity** — ``charm-u50``'s learned twin is
   fitted on a *sampled* slice of the space (the space is past the
   enumeration cap, so enumeration is off the table); its Spearman
   rank correlation against the exact latency model on a fresh uniform
   sample must clear ``--min-rank-corr`` (default 0.85).  The two-tier
   filter only consumes rankings, so rank fidelity is the number that
   decides search quality.
3. **Two-tier vs budget-matched exact** — run the ``bert-u50`` study
   twice with the *same exact-evaluation budget* (same steps, repeats,
   batch size): once two-tier (surrogate-ranked 4x-inflated proposal
   batches) and once exact-only.  Report mean best reward per
   strategy; the two-tier mode should match or beat exact-only because
   the surrogate spends the same exact budget on pre-screened
   proposals.

Run:  PYTHONPATH=src python benchmarks/bench_workloads.py [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.core.study import outcome_summary, run_study
from repro.experiments.presets import get_preset
from repro.hw import SurrogatePlatform, build_platform
from repro.hw.gemm import CANONICAL_TRANSFORMERS, transformer_gemm_ir
from repro.hw.surrogate import spearman_rank_correlation, surrogate_model_for
from repro.utils.tables import format_markdown

PLATFORM = "charm-u50"


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_throughput(args) -> tuple[list, dict]:
    base = build_platform(PLATFORM)
    space = base.config_space()
    rng = np.random.default_rng(0)
    index = rng.integers(0, space.size, min(args.sample, space.size))
    full = space.columns()
    cols = {key: values[index] for key, values in full.items()}
    scalar_configs = [
        space.config_at(int(i)) for i in index[: args.scalar_sample]
    ]

    rows, report = [], {}
    for name, params in CANONICAL_TRANSFORMERS:
        ir = transformer_gemm_ir(**params)
        t_scalar = _best_of(
            args.repeats,
            lambda: [base.network_latency_s(ir, c) for c in scalar_configs],
        )
        t_batch = _best_of(
            args.repeats, lambda: base.batch_network_latency_s(ir, cols)
        )
        scalar_rate = len(scalar_configs) / t_scalar
        batch_rate = len(index) / t_batch
        report[name] = {
            "gemms": len(ir.ops),
            "exact_scalar_cfg_per_s": scalar_rate,
            "exact_batch_cfg_per_s": batch_rate,
            "batch_vs_scalar": batch_rate / scalar_rate,
        }
        rows.append(
            (
                name,
                len(ir.ops),
                f"{scalar_rate:,.0f}",
                f"{batch_rate:,.0f}",
                f"{batch_rate / scalar_rate:,.0f}x",
            )
        )
    print(
        format_markdown(
            ["model", "gemms", "exact scalar cfg/s", "exact batch cfg/s",
             "batch speedup"],
            rows,
        )
    )
    return rows, report


def bench_surrogate_fidelity(args) -> dict:
    base = build_platform(PLATFORM)
    surrogate = SurrogatePlatform(base, surrogate_model_for(base))
    space = base.config_space()
    # Fresh uniform sample, disjoint RNG stream from the fit (seed 1
    # vs the fitter's internal stream) — includes over-budget configs,
    # exactly the mix the two-tier filter must rank at search time.
    rng = np.random.default_rng(1)
    index = rng.integers(0, space.size, min(args.sample, space.size))
    full = space.columns()
    cols = {key: values[index] for key, values in full.items()}
    ir = transformer_gemm_ir(**dict(CANONICAL_TRANSFORMERS)["bert-base"])

    exact_latency = base.batch_network_latency_s(ir, cols)
    sur_latency = surrogate.batch_network_latency_s(ir, cols)
    latency_corr = spearman_rank_correlation(exact_latency, sur_latency)
    area_corr = spearman_rank_correlation(
        base.batch_area_mm2(cols), surrogate.batch_area_mm2(cols)
    )
    valid_frac = float(np.mean(base.batch_config_valid(cols)))
    print(
        f"\nsampled-fit surrogate on {PLATFORM} "
        f"({len(index)} fresh configs, {valid_frac:.1%} within budget): "
        f"latency rank corr {latency_corr:.4f}, area {area_corr:.4f}"
    )
    return {
        "configs_sampled": int(len(index)),
        "valid_fraction": valid_frac,
        "latency_rank_corr": float(latency_corr),
        "area_rank_corr": float(area_corr),
    }


def bench_two_tier(args) -> dict:
    overrides = {
        "execution.num_steps": args.steps,
        "execution.num_repeats": args.study_repeats,
        "execution.master_seed": 7,
    }
    two_tier = get_preset("bert-u50").with_overrides(overrides)
    exact_only = get_preset("bert-u50").with_overrides(
        {**overrides, "execution.surrogate": False}
    )

    t0 = time.perf_counter()
    summary_two = outcome_summary(run_study(two_tier))
    t_two = time.perf_counter() - t0
    t0 = time.perf_counter()
    summary_exact = outcome_summary(run_study(exact_only))
    t_exact = time.perf_counter() - t0

    # None mean-best means no repeat found a feasible point — a real
    # outcome for exact-only runs on a ~9%-valid space, and precisely
    # the failure mode surrogate pre-screening exists to avoid.
    def _fmt(value, spec=".4f"):
        return "n/a" if value is None else format(value, spec)

    rows = []
    report = {"two_tier": {}, "exact_only": {},
              "two_tier_seconds": t_two, "exact_only_seconds": t_exact}
    for key, by_strategy in summary_two.items():
        for strategy, stats in by_strategy.items():
            exact_stats = summary_exact[key][strategy]
            report["two_tier"][strategy] = stats
            report["exact_only"][strategy] = exact_stats
            mean_two = stats["mean_best_reward"]
            mean_exact = exact_stats["mean_best_reward"]
            delta = (
                None
                if mean_two is None or mean_exact is None
                else mean_two - mean_exact
            )
            rows.append(
                (
                    strategy,
                    _fmt(mean_two),
                    f"{stats['hit_rate']:.2f}",
                    _fmt(mean_exact),
                    f"{exact_stats['hit_rate']:.2f}",
                    _fmt(delta, "+.4f"),
                )
            )
    print(
        "\ntwo-tier vs exact-only on bert-u50, budget-matched at "
        f"{args.steps} exact evaluations x {args.study_repeats} repeats:"
    )
    print(
        format_markdown(
            ["strategy", "two-tier mean best", "hit rate",
             "exact-only mean best", "hit rate", "delta"],
            rows,
        )
    )
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats (best-of)")
    parser.add_argument("--sample", type=int, default=2048,
                        help="configs for the batched paths")
    parser.add_argument("--scalar-sample", type=int, default=32,
                        help="configs for the exact scalar loop")
    parser.add_argument("--steps", type=int, default=24,
                        help="search steps (= exact evaluations) per "
                             "repeat in the two-tier comparison")
    parser.add_argument("--study-repeats", type=int, default=2,
                        help="search repeats in the two-tier comparison")
    parser.add_argument("--min-rank-corr", type=float, default=0.85,
                        help="fail below this sampled-surrogate latency "
                             "rank correlation (negative disables)")
    parser.add_argument("--json", type=Path, default=None, metavar="PATH",
                        help="also write the measured numbers as JSON")
    args = parser.parse_args()

    _, throughput = bench_throughput(args)
    fidelity = bench_surrogate_fidelity(args)
    two_tier = bench_two_tier(args)

    if args.json is not None:
        args.json.write_text(
            json.dumps(
                {
                    "benchmark": "bench_workloads",
                    "platform": PLATFORM,
                    "throughput": throughput,
                    "surrogate_fidelity": fidelity,
                    "two_tier": two_tier,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"wrote JSON report to {args.json}")

    if args.min_rank_corr >= 0:
        corr = fidelity["latency_rank_corr"]
        assert corr >= args.min_rank_corr, (
            f"sampled-surrogate latency rank correlation {corr:.4f} below "
            f"the required {args.min_rank_corr:.2f} floor"
        )
        print(
            f"rank-correlation floor {args.min_rank_corr:.2f} met "
            f"({corr:.4f} on {fidelity['configs_sampled']} fresh configs)"
        )


if __name__ == "__main__":
    main()
