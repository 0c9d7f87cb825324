"""Separate search — the conventional-design baseline (Section III-B3).

Stage 1 searches the CNN space for the most accurate model with **no
hardware context** (the controller's reward is normalized accuracy
alone).  Stage 2 freezes the best-accuracy CNN and explores the
accelerator space under the scenario's multi-objective reward.  The
paper splits 10,000 steps as 8,333 / 1,667.

The archive records the *scenario* reward at every step (so reward
traces are comparable across strategies, as in Fig. 6), while the
stage-1 controller is fed the accuracy-only signal.

Batch semantics (ask/tell): rollout batches per stage controller, never
crossing the stage boundary — ``ask`` truncates a batch at the end of
stage 1 so the frozen CNN is chosen from *all* stage-1 results before
any accelerator rollout is proposed.  Batch size 1 is bit-identical to
the historic per-point loop.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluator import CodesignEvaluator, EvaluationResult
from repro.core.search_space import JointSearchSpace
from repro.nasbench.model_spec import ModelSpec
from repro.rl.policy import SequencePolicy
from repro.rl.reinforce import ReinforceConfig, ReinforceTrainer
from repro.search.base import Proposal, SearchResult, SearchStrategy

__all__ = ["SeparateSearch"]


class SeparateSearch(SearchStrategy):
    """Accuracy-only CNN search, then HW design-space exploration."""

    name = "separate"

    def __init__(
        self,
        search_space: JointSearchSpace | None = None,
        seed: int | np.random.Generator | None = None,
        reinforce_config: ReinforceConfig | None = None,
        cnn_fraction: float = 8333 / 10000,
        hidden_size: int = 64,
        embedding_size: int = 32,
    ) -> None:
        super().__init__(search_space, seed)
        if not 0.0 < cnn_fraction < 1.0:
            raise ValueError("cnn_fraction must be in (0, 1)")
        self.cnn_fraction = cnn_fraction
        cnn_seed = int(self.rng.integers(0, 2**63 - 1))
        hw_seed = int(self.rng.integers(0, 2**63 - 1))
        self.cnn_policy = SequencePolicy(
            self.search_space.cnn_vocab_sizes, hidden_size, embedding_size, cnn_seed
        )
        self.hw_policy = SequencePolicy(
            self.search_space.hw_vocab_sizes, hidden_size, embedding_size, hw_seed
        )
        self.cnn_trainer = ReinforceTrainer(self.cnn_policy, reinforce_config)
        self.hw_trainer = ReinforceTrainer(self.hw_policy, reinforce_config)
        self._pending = None

    # ------------------------------------------------------------------
    def _accuracy_reward(self, result: EvaluationResult) -> float:
        """HW-blind stage-1 signal: normalized accuracy or punishment.

        ``result.metrics is None`` exactly when the historic
        ``evaluator.accuracy`` returned ``None`` (invalid or
        unevaluable cell), so this matches the legacy signal bit for
        bit without re-querying the evaluator.
        """
        config = self._evaluator.reward_fn.config
        if result.metrics is None:
            return -config.punishment_scale
        lo, hi = config.bounds.accuracy
        return float(np.clip((result.metrics.accuracy - lo) / (hi - lo), 0.0, 1.0))

    # --- ask/tell ------------------------------------------------------
    def setup(self, evaluator: CodesignEvaluator, num_steps: int) -> None:
        super().setup(evaluator, num_steps)
        self._cnn_left = max(1, int(round(num_steps * self.cnn_fraction)))
        # Stage 1 logs comparable scenario metrics against a reference
        # accelerator: a random design-space point.
        self._reference_config = self.search_space.accelerator_space.random_config(
            self.rng
        )
        self._best_spec: ModelSpec | None = None
        self._best_accuracy = -np.inf
        self._pending = None

    # --- checkpoint/resume ---------------------------------------------
    def state_dict(self) -> dict:
        if self._pending is not None:
            raise RuntimeError("cannot checkpoint between ask and tell")
        state = super().state_dict()
        state.update(
            cnn_trainer=self.cnn_trainer.state_dict(),
            hw_trainer=self.hw_trainer.state_dict(),
            cnn_left=self._cnn_left,
            reference_config=self._reference_config,
            best_spec=self._best_spec,
            best_accuracy=float(self._best_accuracy),
        )
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.cnn_trainer.load_state_dict(state["cnn_trainer"])
        self.hw_trainer.load_state_dict(state["hw_trainer"])
        self._cnn_left = int(state["cnn_left"])
        self._reference_config = state["reference_config"]
        self._best_spec = state["best_spec"]
        self._best_accuracy = float(state["best_accuracy"])
        self._pending = None

    def ask(self, n: int) -> list[Proposal]:
        if self._cnn_left > 0:
            k = min(n, self._cnn_left)
            self._pending = self.cnn_trainer.sample_batch(self.rng, k)
            return [
                Proposal(
                    spec=self.search_space.cell_encoding.decode(
                        self._pending.actions_list(i)
                    ),
                    config=self._reference_config,
                    phase="cnn-only",
                    payload=i,
                )
                for i in range(k)
            ]
        if self._best_spec is None:
            return []  # stage 1 found no evaluable CNN: stop early
        self._pending = self.hw_trainer.sample_batch(self.rng, n)
        return [
            Proposal(
                spec=self._best_spec,
                config=self.search_space.accelerator_space.decode(
                    self._pending.actions_list(i)
                ),
                phase="hw-only",
                payload=i,
            )
            for i in range(n)
        ]

    def tell(self, proposals: list[Proposal], results: list[EvaluationResult]) -> None:
        pending = self._pending.subset([p.payload for p in proposals])
        self._pending = None
        if proposals[0].phase != "cnn-only":
            self.hw_trainer.update_batch(pending, [r.reward.value for r in results])
            return
        self.cnn_trainer.update_batch(
            pending, [self._accuracy_reward(r) for r in results]
        )
        self._cnn_left -= len(proposals)
        for proposal, result in zip(proposals, results):
            if result.metrics is not None:
                accuracy = result.metrics.accuracy
                if accuracy > self._best_accuracy:
                    self._best_accuracy = accuracy
                    self._best_spec = proposal.spec

    def finish(self) -> SearchResult:
        if self._best_spec is None:
            return self._result(self.archive, self._evaluator, stage1_best=None)
        return self._result(
            self.archive,
            self._evaluator,
            stage1_best=self._best_spec,
            stage1_accuracy=self._best_accuracy,
        )


from repro.search.registry import register_strategy

register_strategy(SeparateSearch)
