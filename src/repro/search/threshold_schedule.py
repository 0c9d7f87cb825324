"""Threshold-scheduled codesign search (paper Section IV-A).

The CIFAR-100 flow combines latency and area into perf/area
(img/s/cm2), constrains it to a threshold, and maximizes accuracy.  The
threshold rises over the run — (2, 8, 16, 30, 40) in the paper — with a
target number of *valid* (feasible) points per rung, starting at 300
and growing to 1000 at the last rung ("this gradual increase makes it
easier for the RL controller to learn the structure of high-accuracy
CNNs").

The schedule is the combined strategy with its reward re-armed at each
rung.  ``ask`` moves the rung cursor past finished rungs and points the
shared :meth:`~repro.search.base.SearchStrategy.run` driver at the
rung's ``with_reward`` clone of the evaluator, which keeps all of its
latency/area/accuracy caches; ``tell`` counts the rung's steps and
valid points and files the batch's archive entries under the rung.
The driver evaluates, archives, checkpoints and ends the search like
any other strategy's.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from repro.core.archive import SearchArchive
from repro.core.evaluator import CodesignEvaluator, EvaluationResult
from repro.core.reward import MetricBounds
from repro.core.scenarios import CIFAR100_THRESHOLD_SCHEDULE, cifar100_threshold
from repro.core.search_space import JointSearchSpace
from repro.rl.reinforce import ReinforceConfig
from repro.search.base import Checkpoint, Proposal, SearchResult
from repro.search.combined import CombinedSearch

__all__ = ["ThresholdRung", "ThresholdScheduleSearch", "default_rungs"]


@dataclass(frozen=True)
class ThresholdRung:
    """One rung of the schedule: threshold + valid-point target."""

    threshold: float
    target_valid_points: int
    max_steps: int

    def __post_init__(self) -> None:
        if self.target_valid_points < 1:
            raise ValueError("target_valid_points must be positive")
        if self.max_steps < self.target_valid_points:
            raise ValueError("max_steps must cover the valid-point target")


def default_rungs(
    thresholds: tuple[float, ...] = CIFAR100_THRESHOLD_SCHEDULE,
    targets: tuple[int, ...] = (300, 400, 500, 600, 1000),
    step_multiplier: int = 4,
) -> list[ThresholdRung]:
    """The paper's schedule: ~2300+ valid points over five rungs."""
    if len(thresholds) != len(targets):
        raise ValueError("thresholds and targets must align")
    return [
        ThresholdRung(th, n, max_steps=step_multiplier * n)
        for th, n in zip(thresholds, targets)
    ]


class ThresholdScheduleSearch(CombinedSearch):
    """Combined-strategy search over a rising perf/area threshold."""

    name = "threshold-schedule"

    #: Each rung re-arms the evaluator's reward; a surrogate filter armed
    #: with one scenario would rank with stale thresholds, so two-tier
    #: mode is refused rather than filtering wrongly.
    supports_two_tier = False

    def __init__(
        self,
        search_space: JointSearchSpace | None = None,
        seed: int | np.random.Generator | None = None,
        reinforce_config: ReinforceConfig | None = None,
        rungs: list[ThresholdRung] | None = None,
        bounds: MetricBounds | None = None,
        hidden_size: int = 64,
        embedding_size: int = 32,
    ) -> None:
        super().__init__(
            search_space,
            seed,
            reinforce_config,
            hidden_size=hidden_size,
            embedding_size=embedding_size,
        )
        self.rungs = rungs or default_rungs()
        thresholds = [rung.threshold for rung in self.rungs]
        if len(set(thresholds)) != len(thresholds):
            # Per-rung archives (results and checkpoints) are keyed by
            # threshold; a repeated value would silently merge two
            # rungs' entries into one archive.
            raise ValueError(f"rung thresholds must be unique, got {thresholds}")
        self.bounds = bounds or MetricBounds()

    # --- declarative construction --------------------------------------
    @classmethod
    def _coerce_params(cls, params: dict) -> dict:
        """JSON forms of ``rungs`` / ``bounds`` -> their value objects.

        ``rungs`` entries may be ``[threshold, target, max_steps]``
        triples or ``{"threshold": ..., "target_valid_points": ...,
        "max_steps": ...}`` mappings; ``bounds`` is a mapping of metric
        name to ``[lo, hi]`` (the :class:`MetricBounds` fields).
        """
        params = super()._coerce_params(params)
        rungs = params.get("rungs")
        if rungs is not None and not all(
            isinstance(r, ThresholdRung) for r in rungs
        ):
            coerced = []
            for rung in rungs:
                if isinstance(rung, ThresholdRung):
                    coerced.append(rung)
                elif isinstance(rung, dict):
                    coerced.append(ThresholdRung(**rung))
                elif isinstance(rung, (list, tuple)) and len(rung) == 3:
                    coerced.append(ThresholdRung(*rung))
                else:
                    raise ValueError(
                        f"rung {rung!r} must be a [threshold, "
                        "target_valid_points, max_steps] triple or mapping"
                    )
            params["rungs"] = coerced
        bounds = params.get("bounds")
        if isinstance(bounds, dict):
            params["bounds"] = MetricBounds(
                **{name: tuple(pair) for name, pair in bounds.items()}
            )
        return params

    # --- ask/tell ------------------------------------------------------
    def setup(self, evaluator: CodesignEvaluator, num_steps: int) -> None:
        super().setup(evaluator, num_steps)
        self._base_evaluator = evaluator
        self._armed_rung: int | None = None  # the rung self._evaluator scores
        self._per_rung: dict[float, SearchArchive] = {}
        self._rung_index = 0
        self._rung_steps = 0
        self._rung_valid = 0

    def ask(self, n: int) -> list[Proposal]:
        while self._rung_index < len(self.rungs) and self._rung_finished():
            self._rung_index += 1
            self._rung_steps = 0
            self._rung_valid = 0
        if self._rung_index == len(self.rungs):
            return []
        rung = self.rungs[self._rung_index]
        if self._armed_rung != self._rung_index:
            self._armed_rung = self._rung_index
            self._evaluator = self._base_evaluator.with_reward(
                cifar100_threshold(rung.threshold, self.bounds)
            )
            self._per_rung.setdefault(rung.threshold, SearchArchive())
        proposals = super().ask(min(n, rung.max_steps - self._rung_steps))
        phase = f"th-{rung.threshold:g}"
        return [replace(proposal, phase=phase) for proposal in proposals]

    def tell(self, proposals: list[Proposal], results: list[EvaluationResult]) -> None:
        super().tell(proposals, results)
        rung_archive = self._per_rung[self.rungs[self._rung_index].threshold]
        rung_archive.entries.extend(self.archive.entries[-len(results):])
        self._rung_steps += len(results)
        self._rung_valid += sum(1 for result in results if result.feasible)

    def _rung_finished(self) -> bool:
        rung = self.rungs[self._rung_index]
        return (
            self._rung_valid >= rung.target_valid_points
            or self._rung_steps >= rung.max_steps
        )

    def finish(self) -> SearchResult:
        """The archive plus per-rung archives and top-10 lists in
        ``extras`` (the rows Fig. 7 plots)."""
        top10 = {
            threshold: rung_archive.top_k(10)
            for threshold, rung_archive in self._per_rung.items()
        }
        return SearchResult(
            strategy=self.name,
            scenario="cifar100-threshold-schedule",
            archive=self.archive,
            extras={"per_rung": self._per_rung, "top10": top10},
        )

    # --- checkpoint/resume ---------------------------------------------
    def state_dict(self) -> dict:
        state = super().state_dict()
        state.update(
            rung_index=self._rung_index,
            rung_steps=self._rung_steps,
            rung_valid=self._rung_valid,
            total_steps=len(self.archive),
            # Per-rung archives share their entries with the main
            # archive, so they serialize as step indices into it —
            # avoiding a second full copy of every entry per checkpoint.
            per_rung=[
                [threshold, [entry.step for entry in rung_archive.entries]]
                for threshold, rung_archive in self._per_rung.items()
            ],
        )
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self._rung_index = int(state["rung_index"])
        self._rung_steps = int(state["rung_steps"])
        self._rung_valid = int(state["rung_valid"])
        entries = self.archive.entries  # entry.step == its archive index
        self._per_rung = {
            float(threshold): SearchArchive(
                entries=[entries[int(step)] for step in steps]
            )
            for threshold, steps in state["per_rung"]
        }

    def run(
        self,
        evaluator: CodesignEvaluator,
        num_steps: int | None = None,
        batch_size: int = 1,
        checkpoint: Checkpoint | None = None,
        checkpoint_every: int = 1,
        two_tier=None,
    ) -> SearchResult:
        """Run the whole schedule (``num_steps`` caps the total if set).

        The shared driver samples ``batch_size`` rollouts at a time,
        evaluates them on the current rung's evaluator and folds them
        into one REINFORCE update; the valid-point target is re-checked
        between batches, so a batch may overshoot it by up to
        ``batch_size - 1`` evaluations.  At ``batch_size=1`` the run is
        bit-identical to the historic per-point loop.  Checkpoints —
        rung cursor and per-rung archives included — follow the
        driver's contract.
        """
        # Without a cap the budget is unbounded and the search ends when
        # ask() runs out of rungs, so the last save holds the advanced
        # rung cursor.
        return super().run(
            evaluator,
            sys.maxsize if num_steps is None else num_steps,
            batch_size=batch_size,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            two_tier=two_tier,
        )


from repro.search.registry import register_strategy

register_strategy(ThresholdScheduleSearch)
