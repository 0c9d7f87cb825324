"""Phase search (paper Section III-B2).

Two controllers — one over the CNN tokens, one over the accelerator
tokens — take turns: a CNN phase searches cells against the currently
frozen accelerator, then the best pair found so far freezes the CNN
and an accelerator phase tunes the hardware, and so on until the step
budget is spent.  The paper interleaves 1000-step CNN phases with
200-step HW phases inside a 10,000-step budget.

Divide-and-conquer makes each sub-problem easier, but mutual
adaptation only happens at phase boundaries — the mechanism behind the
paper's observation that phase search reaches better constrained
optima yet converges slower and misses constraints more often at small
budgets.

Batch semantics (ask/tell): rollout batches from the active phase's
controller, truncated at phase boundaries — ``ask`` never mixes two
phases in one batch, so the freeze decision at each boundary still
sees every result of the finished phase.  Batch size 1 is
bit-identical to the historic per-point loop.
"""

from __future__ import annotations

import numpy as np

from repro.core.archive import ArchiveEntry, SearchArchive
from repro.core.evaluator import CodesignEvaluator, EvaluationResult
from repro.core.search_space import JointSearchSpace
from repro.rl.policy import SequencePolicy
from repro.rl.reinforce import ReinforceConfig, ReinforceTrainer
from repro.search.base import Proposal, SearchStrategy

__all__ = ["PhaseSearch"]


class PhaseSearch(SearchStrategy):
    """Alternating CNN / accelerator controllers."""

    name = "phase"

    def __init__(
        self,
        search_space: JointSearchSpace | None = None,
        seed: int | np.random.Generator | None = None,
        reinforce_config: ReinforceConfig | None = None,
        cnn_phase_steps: int = 1000,
        hw_phase_steps: int = 200,
        hidden_size: int = 64,
        embedding_size: int = 32,
    ) -> None:
        super().__init__(search_space, seed)
        if cnn_phase_steps < 1 or hw_phase_steps < 1:
            raise ValueError("phase lengths must be positive")
        self.cnn_phase_steps = cnn_phase_steps
        self.hw_phase_steps = hw_phase_steps
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
    @staticmethod
    def _best_entry(archive: SearchArchive) -> ArchiveEntry | None:
        """Best feasible entry, falling back to best valid entry."""
        best = archive.best()
        if best is not None:
            return best
        valid = [e for e in archive.entries if e.valid]
        if valid:
            return max(valid, key=lambda e: e.reward)
        if archive.entries:
            return max(archive.entries, key=lambda e: e.reward)
        return None

    def _in_cnn_phase(self) -> bool:
        return self._phase_index % 2 == 0

    def _start_phase(self) -> None:
        """Arm the budget for the phase at ``self._phase_index``."""
        budget = (
            self.cnn_phase_steps if self._in_cnn_phase() else self.hw_phase_steps
        )
        self._phase_left = budget

    def _end_phase(self) -> None:
        """Freeze the best component found so far for the next phase."""
        best = self._best_entry(self.archive)
        if best is not None and best.valid:
            self._frozen_config = best.config
            self._frozen_spec = best.spec
        if self._frozen_spec is None:
            # No valid CNN yet: stay in (another) CNN phase.
            self._phase_index += 2
        else:
            self._phase_index += 1
        self._start_phase()

    # --- ask/tell ------------------------------------------------------
    def setup(self, evaluator: CodesignEvaluator, num_steps: int) -> None:
        super().setup(evaluator, num_steps)
        # Initial frozen accelerator: a random design-space point.
        self._frozen_config = self.search_space.accelerator_space.random_config(
            self.rng
        )
        self._frozen_spec = None
        self._phase_index = 0
        self._start_phase()
        self._pending = None

    # --- checkpoint/resume ---------------------------------------------
    def state_dict(self) -> dict:
        if self._pending is not None:
            raise RuntimeError("cannot checkpoint between ask and tell")
        state = super().state_dict()
        state.update(
            cnn_trainer=self.cnn_trainer.state_dict(),
            hw_trainer=self.hw_trainer.state_dict(),
            frozen_config=self._frozen_config,
            frozen_spec=self._frozen_spec,
            phase_index=self._phase_index,
            phase_left=self._phase_left,
        )
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.cnn_trainer.load_state_dict(state["cnn_trainer"])
        self.hw_trainer.load_state_dict(state["hw_trainer"])
        self._frozen_config = state["frozen_config"]
        self._frozen_spec = state["frozen_spec"]
        self._phase_index = int(state["phase_index"])
        self._phase_left = int(state["phase_left"])
        self._pending = None

    def ask(self, n: int) -> list[Proposal]:
        k = min(n, self._phase_left)
        phase_name = f"{'cnn' if self._in_cnn_phase() else 'hw'}-{self._phase_index}"
        if self._in_cnn_phase():
            self._pending = self.cnn_trainer.sample_batch(self.rng, k)
            return [
                Proposal(
                    spec=self.search_space.cell_encoding.decode(
                        self._pending.actions_list(i)
                    ),
                    config=self._frozen_config,
                    phase=phase_name,
                    payload=i,
                )
                for i in range(k)
            ]
        self._pending = self.hw_trainer.sample_batch(self.rng, k)
        return [
            Proposal(
                spec=self._frozen_spec,
                config=self.search_space.accelerator_space.decode(
                    self._pending.actions_list(i)
                ),
                phase=phase_name,
                payload=i,
            )
            for i in range(k)
        ]

    def tell(self, proposals: list[Proposal], results: list[EvaluationResult]) -> None:
        trainer = self.cnn_trainer if self._in_cnn_phase() else self.hw_trainer
        pending = self._pending.subset([p.payload for p in proposals])
        trainer.update_batch(pending, [r.reward.value for r in results])
        self._pending = None
        self._phase_left -= len(proposals)
        if self._phase_left == 0:
            self._end_phase()


from repro.search.registry import register_strategy

register_strategy(PhaseSearch)
