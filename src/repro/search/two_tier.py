"""Two-tier proposal filtering: surrogate-ranked, exact-scored.

The two-tier mode trades controller samples (cheap: an LSTM rollout)
for exact hardware evaluations (the budgeted resource): each iteration
the driver asks the strategy for an *inflated* batch, a
:class:`TwoTierFilter` scores every proposal with the exact platform's
learned twin (``SurrogatePlatform(platform,
surrogate_model_for(platform))``, :mod:`repro.hw.surrogate`, which
:func:`repro.core.study.build_study` builds for each platform of a
two-tier study), and only the top ``exact_fraction`` slice is
re-scored by the exact platform.  The
exact results are what gets told / cached / ledgered — the surrogate
tier only decides *which* proposals deserve an exact evaluation, so
the resume and bit-identity contracts of the exact path are untouched,
and a surrogate misprediction costs opportunity, never correctness.

Determinism: the surrogate evaluator is deterministic (fitted model +
punishment rewards for invalid points), ranking ties break by proposal
position, and the surviving indices are returned in ascending order —
so the REINFORCE baseline update consumes rollouts in the same order
they were sampled, and a resumed run replays identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.core.evaluator import CodesignEvaluator
    from repro.search.base import Proposal

__all__ = ["TwoTierFilter", "DEFAULT_EXACT_FRACTION"]

#: Default slice of each surrogate-ranked batch that earns an exact
#: evaluation (the ISSUE/paper operating point: 4x oversampling).
DEFAULT_EXACT_FRACTION = 0.25


@dataclass
class TwoTierFilter:
    """Rank proposals with a surrogate, keep the top slice.

    ``surrogate_evaluator`` must score under the *same* reward scenario
    as the exact evaluator (so the ranking optimizes the quantity the
    search optimizes) but with the surrogate platform and no shared
    eval cache — exact rows must never leak into surrogate scores nor
    the other way around (the evaluators' distinct ``cache_namespace``
    enforces the persistent side of that).
    """

    surrogate_evaluator: "CodesignEvaluator"
    exact_fraction: float = DEFAULT_EXACT_FRACTION

    def __post_init__(self) -> None:
        if not 0.0 < self.exact_fraction <= 1.0:
            raise ValueError(
                f"exact_fraction must be in (0, 1], got {self.exact_fraction}"
            )

    def ask_size(self, k: int) -> int:
        """Proposals to ask for so that ~``k`` survive the filter."""
        return max(k, math.ceil(k / self.exact_fraction))

    def select(self, proposals: "list[Proposal]", k: int) -> list[int]:
        """Indices of the top-``k`` proposals by surrogate score.

        Returned in ascending order (sample order, not rank order):
        the REINFORCE strategies update their EMA baseline rollout by
        rollout, so preserving sample order keeps the update
        independent of how the surrogate happened to rank the batch.
        Ties break toward the earlier proposal, deterministically.
        """
        if k >= len(proposals):
            return list(range(len(proposals)))
        results = self.surrogate_evaluator.evaluate_batch(
            [(p.spec, p.config) for p in proposals]
        )
        scores = np.array([r.reward.value for r in results], dtype=np.float64)
        order = np.argsort(-scores, kind="stable")
        return sorted(int(i) for i in order[:k])
