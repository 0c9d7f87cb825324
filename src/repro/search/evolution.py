"""Regularized (aging) evolution — the paper's noted alternative.

The paper's introduction lists evolutionary algorithms alongside RL as
standard NAS search engines; this strategy implements regularized
evolution (Real et al., 2019) over the same joint action vector the RL
controller emits, so it is directly comparable to the REINFORCE
strategies under any scenario: an initial random population, tournament
selection of a parent, single-token mutation of its action vector, and
aging removal of the oldest individual.

Batch semantics (ask/tell): a batch is a **generation** — ``ask(n)``
runs ``n`` tournaments against the current population and proposes
``n`` children; ``tell`` appends them all and ages out the ``n``
oldest.  At batch size 1 this degenerates to the classic steady-state
loop, bit-identical to the historic implementation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.evaluator import CodesignEvaluator, EvaluationResult
from repro.core.search_space import JointSearchSpace
from repro.search.base import Proposal, SearchStrategy

__all__ = ["EvolutionSearch"]


@dataclass
class _Individual:
    actions: list[int]
    reward: float


class EvolutionSearch(SearchStrategy):
    """Aging evolution over the joint CNN+HW action space."""

    name = "evolution"

    def __init__(
        self,
        search_space: JointSearchSpace | None = None,
        seed: int | np.random.Generator | None = None,
        population_size: int = 50,
        tournament_size: int = 10,
        mutations_per_child: int = 1,
    ) -> None:
        super().__init__(search_space, seed)
        if population_size < 2:
            raise ValueError("population_size must be at least 2")
        if not 1 <= tournament_size <= population_size:
            raise ValueError("tournament_size must be in [1, population_size]")
        if mutations_per_child < 1:
            raise ValueError("mutations_per_child must be positive")
        if max(self.search_space.vocab_sizes) < 2:
            raise ValueError(
                "evolution needs a search space with at least one token "
                "of two or more values to mutate"
            )
        self.population_size = population_size
        self.tournament_size = tournament_size
        self.mutations_per_child = mutations_per_child
        self.population: deque[_Individual] = deque()

    # ------------------------------------------------------------------
    def _mutate(self, actions: list[int]) -> list[int]:
        """Resample ``mutations_per_child`` random tokens."""
        child = list(actions)
        vocab = self.search_space.vocab_sizes
        for _ in range(self.mutations_per_child):
            token = int(self.rng.integers(0, len(child)))
            while vocab[token] < 2:  # a one-value token cannot change
                token = int(self.rng.integers(0, len(child)))
            choices = [a for a in range(vocab[token]) if a != child[token]]
            child[token] = int(self.rng.choice(choices))
        return child

    def _select_parent(self) -> _Individual:
        contenders = [
            self.population[int(i)]
            for i in self.rng.integers(0, len(self.population), self.tournament_size)
        ]
        return max(contenders, key=lambda ind: ind.reward)

    # --- ask/tell ------------------------------------------------------
    def setup(self, evaluator: CodesignEvaluator, num_steps: int) -> None:
        super().setup(evaluator, num_steps)
        self.population = deque()

    # --- checkpoint/resume ---------------------------------------------
    def state_dict(self) -> dict:
        state = super().state_dict()
        state["population"] = [
            {"actions": list(ind.actions), "reward": ind.reward}
            for ind in self.population
        ]
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.population = deque(
            _Individual(
                actions=[int(a) for a in ind["actions"]],
                reward=float(ind["reward"]),
            )
            for ind in state["population"]
        )

    def ask(self, n: int) -> list[Proposal]:
        proposals = []
        warmup_left = self.population_size - len(self.population)
        if warmup_left > 0:
            # Seed population with random individuals.
            for _ in range(min(n, warmup_left)):
                actions = self.search_space.random_actions(self.rng)
                spec, config = self.search_space.decode(actions)
                proposals.append(
                    Proposal(spec=spec, config=config, phase="init", payload=actions)
                )
            return proposals
        # One generation: n tournaments against the current population.
        for _ in range(n):
            actions = self._mutate(self._select_parent().actions)
            spec, config = self.search_space.decode(actions)
            proposals.append(
                Proposal(spec=spec, config=config, phase="evolve", payload=actions)
            )
        return proposals

    def tell(self, proposals: list[Proposal], results: list[EvaluationResult]) -> None:
        # Each proposal carries its own actions payload, so in two-tier
        # mode only the surviving individuals join the population (and
        # age out elders).
        evolving = proposals[0].phase == "evolve"
        for proposal, result in zip(proposals, results):
            self.population.append(
                _Individual(actions=proposal.payload, reward=result.reward.value)
            )
            if evolving:
                self.population.popleft()  # age out the oldest


from repro.search.registry import register_strategy

register_strategy(EvolutionSearch)
