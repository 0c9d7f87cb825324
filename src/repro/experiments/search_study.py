"""The Section III search-strategy study feeding Fig. 5 and Fig. 6.

For each scenario (unconstrained / 1 constraint / 2 constraints) and
each strategy (combined / phase / separate), run ``num_repeats``
independent searches over the enumerated micro space and keep the
archives.  Fig. 5 consumes the per-repeat best points and the top-100
reward-ranked Pareto points; Fig. 6 consumes the averaged reward
traces.

The grid is declared once, as the ``search-study`` / ``fig5`` /
``fig6`` presets (:mod:`repro.experiments.presets`), and runs through
:func:`repro.core.study.run_study`, which returns the
:class:`SearchStudyResult` defined here.  ``repro run fig5|fig6|fig5+6``
builds its spec from the same strategy line-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import Scale
from repro.search.runner import RepeatOutcome

__all__ = ["SearchStudyResult"]


@dataclass
class SearchStudyResult:
    """All repeats for every (scenario, strategy) pair."""

    outcomes: dict[str, dict[str, RepeatOutcome]]
    pareto_top100: dict[str, list[dict]]
    scale: Scale
    extras: dict = field(default_factory=dict)

    def best_points_table(self, scenario: str) -> list[tuple]:
        """Fig. 5 rows: per-repeat best point of each strategy."""
        rows = []
        for strategy, outcome in self.outcomes[scenario].items():
            for entry in outcome.best_entries():
                m = entry.metrics
                rows.append(
                    (
                        strategy,
                        round(m.latency_ms, 2),
                        round(m.accuracy, 2),
                        round(m.area_mm2, 1),
                        round(entry.reward, 4),
                    )
                )
        return rows
