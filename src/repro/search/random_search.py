"""Uniform random search — the ablation baseline for the RL controller."""

from __future__ import annotations

from repro.search.base import Proposal, SearchStrategy

__all__ = ["RandomSearch"]


class RandomSearch(SearchStrategy):
    """Samples every token uniformly at each step.

    Proposals never depend on results, so any batch size visits the
    same points in the same order — batching only changes speed.
    """

    name = "random"

    def ask(self, n: int) -> list[Proposal]:
        proposals = []
        for _ in range(n):
            actions = self.search_space.random_actions(self.rng)
            spec, config = self.search_space.decode(actions)
            proposals.append(Proposal(spec=spec, config=config, phase="random"))
        return proposals


from repro.search.registry import register_strategy

register_strategy(RandomSearch)
