"""Fig. 6: reward-vs-steps curves per strategy and scenario.

The paper plots the reward function over 10,000 steps averaged across
10 repeats, showing: *combined* converges fastest (and wins
unconstrained), *phase* climbs through exploration phases and ends
highest under constraints, *separate* only acquires the MOO objective
in its second stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.search_study import SearchStudyResult
from repro.search.runner import mean_reward_trace
from repro.utils.tables import format_markdown

__all__ = ["Fig6Result", "run_fig6"]


@dataclass
class Fig6Result:
    """Averaged, smoothed reward traces."""

    study: SearchStudyResult
    window: int = 100

    def trace(self, scenario: str, strategy: str) -> np.ndarray:
        return mean_reward_trace(
            self.study.outcomes[scenario][strategy], window=self.window
        )

    def series_rows(self, scenario: str, num_points: int = 20) -> list[tuple]:
        """Downsampled curve rows: (step, one column per strategy)."""
        strategies = list(self.study.outcomes[scenario])
        traces = {s: self.trace(scenario, s) for s in strategies}
        length = min(len(t) for t in traces.values())
        steps = np.linspace(0, length - 1, num_points).astype(int)
        rows = []
        for step in steps:
            rows.append(
                (int(step), *(round(float(traces[s][step]), 4) for s in strategies))
            )
        return rows

    def final_rewards(self) -> dict[str, dict[str, float]]:
        """Scenario -> strategy -> final smoothed reward."""
        out: dict[str, dict[str, float]] = {}
        for scenario, by_strategy in self.study.outcomes.items():
            out[scenario] = {
                strategy: float(self.trace(scenario, strategy)[-1])
                for strategy in by_strategy
            }
        return out

    def convergence_step(
        self, scenario: str, strategy: str, fraction: float = 0.95
    ) -> int:
        """First step reaching ``fraction`` of the final smoothed reward.

        The speed measure behind "combined is generally faster to
        converge".
        """
        trace = self.trace(scenario, strategy)
        target = trace[-1] * fraction if trace[-1] > 0 else trace[-1] / fraction
        hits = np.nonzero(trace >= target)[0]
        return int(hits[0]) if len(hits) else len(trace) - 1

    def to_markdown(self) -> str:
        lines = []
        for scenario in self.study.outcomes:
            strategies = list(self.study.outcomes[scenario])
            lines.append(f"### Fig. 6 — {scenario}")
            lines.append(
                format_markdown(["step", *strategies], self.series_rows(scenario))
            )
            lines.append("")
        return "\n".join(lines)


def run_fig6(study: SearchStudyResult) -> Fig6Result:
    """Package a Fig. 5/6 search study as the Fig. 6 view.

    ``study`` is what :func:`repro.core.study.run_study` returns for
    the declarative ``fig6`` preset (:mod:`repro.experiments.presets`)
    or any spec over the same grid — ``repro study run fig6`` runs it
    from the command line, and ``repro run fig6`` packages it.
    """
    return Fig6Result(study=study)
