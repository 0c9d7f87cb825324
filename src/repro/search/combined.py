"""Combined search (paper Section III-B1).

One controller over the concatenated CNN+HW token sequence applies
REINFORCE directly to the joint space of Eq. 1 — both the CNN and the
accelerator can change at every step, which makes this strategy the
fastest to adapt (and, per the paper, the best choice when the search
is unconstrained and for the CIFAR-100 flow).

Batch semantics (ask/tell): a batch is a **rollout batch** — ``ask(n)``
draws ``n`` rollouts from the current policy in one vectorized forward
pass, and ``tell`` performs one mini-batch REINFORCE update (mean
gradient over the rollouts, EMA baseline advanced rollout-by-rollout).
A batch of one is the historic per-point sample/update step, bit for
bit: its traces are pinned by ``tests/data/ask_tell_goldens.*``.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluator import CodesignEvaluator, EvaluationResult
from repro.core.search_space import JointSearchSpace
from repro.rl.policy import SequencePolicy
from repro.rl.reinforce import ReinforceConfig, ReinforceTrainer
from repro.search.base import Proposal, SearchStrategy

__all__ = ["CombinedSearch"]


class CombinedSearch(SearchStrategy):
    """Single joint policy, updated once per rollout batch."""

    name = "combined"

    def __init__(
        self,
        search_space: JointSearchSpace | None = None,
        seed: int | np.random.Generator | None = None,
        reinforce_config: ReinforceConfig | None = None,
        hidden_size: int = 64,
        embedding_size: int = 32,
    ) -> None:
        super().__init__(search_space, seed)
        policy_seed = int(self.rng.integers(0, 2**63 - 1))
        self.policy = SequencePolicy(
            self.search_space.vocab_sizes,
            hidden_size=hidden_size,
            embedding_size=embedding_size,
            seed=policy_seed,
        )
        self.trainer = ReinforceTrainer(self.policy, reinforce_config)
        self._pending = None

    # --- ask/tell ------------------------------------------------------
    def setup(self, evaluator: CodesignEvaluator, num_steps: int) -> None:
        super().setup(evaluator, num_steps)
        self._pending = None

    # --- checkpoint/resume ---------------------------------------------
    def state_dict(self) -> dict:
        if self._pending is not None:
            raise RuntimeError("cannot checkpoint between ask and tell")
        state = super().state_dict()
        state["trainer"] = self.trainer.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.trainer.load_state_dict(state["trainer"])
        self._pending = None

    def ask(self, n: int) -> list[Proposal]:
        self._pending = self.trainer.sample_batch(self.rng, n)
        proposals = []
        for i in range(n):
            spec, config = self.search_space.decode(self._pending.actions_list(i))
            proposals.append(
                Proposal(spec=spec, config=config, phase="combined", payload=i)
            )
        return proposals

    def tell(self, proposals: list[Proposal], results: list[EvaluationResult]) -> None:
        pending = self._pending.subset([p.payload for p in proposals])
        self.trainer.update_batch(pending, [r.reward.value for r in results])
        self._pending = None


from repro.search.registry import register_strategy

register_strategy(CombinedSearch)
