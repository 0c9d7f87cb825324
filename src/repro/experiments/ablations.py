"""Ablation studies on the paper's two load-bearing design choices.

A1 — **punishment function**: the paper feeds constraint violations
back as a sign-opposed punishment ``Rv``; the ablation weakens it to a
near-zero constant, removing the gradient away from infeasible
regions (1-constraint scenario, combined strategy).

A2 — **RL controller vs random search**: the paper's premise is that
REINFORCE finds good points in fewer steps than chance (unconstrained
scenario).

A3 — **threshold schedule vs fixed final threshold**: Section IV-A
reports that gradually raising the perf/area threshold "makes it
easier for the RL controller to learn the structure of high-accuracy
CNNs"; the ablation starts at the final threshold directly with the
same total budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.study import replace_execution, run_study
from repro.experiments.common import Scale, SpaceBundle, load_bundle
from repro.experiments.fig7 import fig7_spec, run_fig7, scaled_rungs
from repro.experiments.presets import get_preset
from repro.search.runner import RepeatOutcome
from repro.search.threshold_schedule import ThresholdRung
from repro.utils.tables import format_markdown

__all__ = [
    "AblationRow",
    "run_punishment_ablation",
    "run_random_ablation",
    "run_schedule_ablation",
    "run_all_ablations",
]


@dataclass(frozen=True)
class AblationRow:
    """One (variant, statistic) comparison row."""

    ablation: str
    variant: str
    best_reward: float
    feasible_rate: float
    extra: str = ""


def _outcome_stats(outcome: RepeatOutcome) -> tuple[float, float]:
    """(mean best reward, mean feasible fraction) over repeats."""
    best_rewards = [
        r.best.reward if r.best is not None else np.nan for r in outcome.results
    ]
    feasible_rates = [
        r.archive.num_feasible / max(len(r.archive), 1) for r in outcome.results
    ]
    with np.errstate(all="ignore"):
        mean_best = float(np.nanmean(best_rewards)) if best_rewards else float("nan")
    return mean_best, float(np.mean(feasible_rates))


def _run_ablation_study(
    preset: str, bundle: SpaceBundle | None, scale: Scale | None, master_seed: int
):
    """One ablation preset, rescaled and reseeded, through ``run_study``."""
    bundle = bundle or load_bundle()
    scale = scale or Scale.from_env()
    spec = replace_execution(
        get_preset(preset),
        num_steps=scale.search_steps,
        num_repeats=scale.num_repeats,
        master_seed=master_seed,
    )
    return run_study(spec, bundle=bundle, scale=scale)


def run_punishment_ablation(
    bundle: SpaceBundle | None = None, scale: Scale | None = None, master_seed: int = 1
) -> list[AblationRow]:
    """A1: distance-scaled punishment vs a barely-there constant.

    Runs the declarative ``ablation-punishment`` preset: the combined
    strategy under the 1-constraint scenario and a
    ``punishment_scale=1e-3`` variant of it (an inline scenario spec).
    """
    study = _run_ablation_study("ablation-punishment", bundle, scale, master_seed)
    rows = []
    for variant, scenario in (
        ("punishment (paper)", "1-constraint"),
        ("weak punishment", "1-constraint-weak-punish"),
    ):
        reward, feasible = _outcome_stats(study.outcomes[scenario]["combined"])
        rows.append(AblationRow("A1-punishment", variant, reward, feasible))
    return rows


def run_random_ablation(
    bundle: SpaceBundle | None = None, scale: Scale | None = None, master_seed: int = 2
) -> list[AblationRow]:
    """A2: REINFORCE controller vs uniform random proposals.

    Runs the declarative ``ablation-random`` preset: combined and
    random strategies under the unconstrained scenario, same seeds.
    """
    study = _run_ablation_study("ablation-random", bundle, scale, master_seed)
    rows = []
    for variant, strategy in (("combined (RL)", "combined"), ("random", "random")):
        reward, feasible = _outcome_stats(study.outcomes["unconstrained"][strategy])
        rows.append(AblationRow("A2-controller", variant, reward, feasible))
    return rows


def run_schedule_ablation(
    scale: Scale | None = None, master_seed: int = 3
) -> list[AblationRow]:
    """A3: rising threshold schedule vs jumping straight to the top.

    Both variants run :func:`repro.experiments.fig7.fig7_spec` through
    ``run_study`` from the same master seed; only the rung ladder
    differs.
    """
    scale = scale or Scale.from_env()
    scheduled = scaled_rungs(scale)
    total_target = sum(r.target_valid_points for r in scheduled)
    total_steps = sum(r.max_steps for r in scheduled)
    final_threshold = scheduled[-1].threshold
    fixed = [ThresholdRung(final_threshold, total_target, total_steps)]

    rows = []
    for variant, rungs in (("schedule (paper)", scheduled), ("fixed final threshold", fixed)):
        fig7 = run_fig7(run_study(fig7_spec(scale, master_seed, rungs), scale=scale))
        top_entries = fig7.top10_per_threshold.get(final_threshold, [])
        best_acc = max(
            (e.metrics.accuracy for e in top_entries if e.metrics is not None),
            default=float("nan"),
        )
        feasible = sum(
            len(a.feasible_entries()) for a in fig7.extras["search_result"].extras["per_rung"].values()
        )
        rows.append(
            AblationRow(
                "A3-schedule",
                variant,
                best_reward=best_acc,
                feasible_rate=feasible / max(fig7.total_steps, 1),
                extra=f"best accuracy at final threshold {final_threshold:g}",
            )
        )
    return rows


def run_all_ablations(
    bundle: SpaceBundle | None = None, scale: Scale | None = None
) -> list[AblationRow]:
    """All three ablations, one row list."""
    bundle = bundle or load_bundle()
    scale = scale or Scale.from_env()
    rows = []
    rows += run_punishment_ablation(bundle, scale)
    rows += run_random_ablation(bundle, scale)
    rows += run_schedule_ablation(scale)
    return rows


def ablation_markdown(rows: list[AblationRow]) -> str:
    return format_markdown(
        ["ablation", "variant", "best_reward", "feasible_rate", "note"],
        [
            (r.ablation, r.variant, round(r.best_reward, 4), round(r.feasible_rate, 3), r.extra)
            for r in rows
        ],
    )
