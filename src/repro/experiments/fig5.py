"""Fig. 5: top search results vs the top-100 Pareto points.

For each scenario the paper plots the best point of each of 10 repeats
per strategy against the 100 Pareto-optimal points that maximize the
scenario's reward.  The headline shapes:

* *separate* often lands outside the constraints (high accuracy, poor
  efficiency) — only a minority of its repeats fit on the axes;
* *combined* and *phase* land near the reference set, with *phase*
  closest under constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.search_study import SearchStudyResult
from repro.utils.tables import format_markdown

__all__ = ["Fig5Result", "run_fig5"]


@dataclass
class Fig5Result:
    """Per-scenario comparison tables."""

    study: SearchStudyResult

    def constraint_hit_rates(self) -> dict[str, dict[str, float]]:
        """Scenario -> strategy -> fraction of repeats ending feasible."""
        return {
            scenario: {
                strategy: outcome.hit_rate()
                for strategy, outcome in by_strategy.items()
            }
            for scenario, by_strategy in self.study.outcomes.items()
        }

    def distance_to_reference(self, scenario: str) -> dict[str, float]:
        """Mean reward gap between each strategy's bests and the top-100.

        Smaller is better; measured in reward units (the paper reads
        this off the plots as proximity to the ideal points).
        """
        reference = self.study.pareto_top100.get(scenario)
        if not reference:
            return {}
        best_ref = reference[0]["reward"]
        gaps = {}
        for strategy, outcome in self.study.outcomes[scenario].items():
            rewards = outcome.top_rewards()
            gaps[strategy] = (
                float(best_ref - rewards.mean()) if len(rewards) else float("nan")
            )
        return gaps

    def to_markdown(self) -> str:
        lines = []
        for scenario in self.study.outcomes:
            lines.append(f"### Fig. 5 — {scenario}")
            reference = self.study.pareto_top100.get(scenario)
            if reference is not None:
                lines.append(
                    "Top reward-ranked Pareto points (reference, first 10):"
                )
                lines.append(
                    format_markdown(
                        ["reward", "latency_ms", "accuracy_%", "area_mm2"],
                        [
                            (
                                round(r["reward"], 4),
                                round(r["latency_ms"], 2),
                                round(r["accuracy"], 2),
                                round(r["area_mm2"], 1),
                            )
                            for r in reference[:10]
                        ],
                    )
                )
            else:
                # Non-reference platforms have no enumerated Pareto
                # overlay — the bundle's metric arrays don't apply.
                lines.append(
                    "(no enumerated Pareto reference for this platform)"
                )
            lines.append("")
            lines.append("Best point of each repeat (per strategy):")
            lines.append(
                format_markdown(
                    ["strategy", "latency_ms", "accuracy_%", "area_mm2", "reward"],
                    self.study.best_points_table(scenario),
                )
            )
            hit = self.constraint_hit_rates()[scenario]
            gaps = self.distance_to_reference(scenario)
            lines.append("")
            lines.append(
                format_markdown(
                    ["strategy", "feasible_hit_rate", "mean_reward_gap_to_best_pareto"],
                    [
                        (s, round(hit.get(s, np.nan), 2), round(gaps.get(s, np.nan), 4))
                        for s in self.study.outcomes[scenario]
                    ],
                )
            )
            lines.append("")
        return "\n".join(lines)


def run_fig5(study: SearchStudyResult) -> Fig5Result:
    """Package a Fig. 5/6 search study as the Fig. 5 view.

    ``study`` is what :func:`repro.core.study.run_study` returns for
    the declarative ``fig5`` preset (:mod:`repro.experiments.presets`)
    or any spec over the same grid — ``repro study run fig5`` runs it
    from the command line, and ``repro run fig5`` packages it.
    """
    return Fig5Result(study=study)
