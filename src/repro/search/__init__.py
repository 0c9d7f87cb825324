"""Search strategies (batched ask/tell): combined, phase, separate,
random, evolution, threshold schedule — plus the repeat/grid engine."""

from repro.search.base import Checkpoint, Proposal, SearchResult, SearchStrategy
from repro.search.combined import CombinedSearch
from repro.search.registry import (
    StrategyError,
    build_strategy,
    get_strategy,
    list_strategies,
    register_strategy,
)
from repro.search.evolution import EvolutionSearch
from repro.search.phase import PhaseSearch
from repro.search.random_search import RandomSearch
from repro.search.runner import (
    RepeatJob,
    RepeatOutcome,
    mean_reward_trace,
    run_grid,
)
from repro.search.separate import SeparateSearch
from repro.search.threshold_schedule import (
    ThresholdRung,
    ThresholdScheduleSearch,
    default_rungs,
)

__all__ = [
    "Checkpoint",
    "Proposal",
    "SearchResult",
    "SearchStrategy",
    "CombinedSearch",
    "EvolutionSearch",
    "StrategyError",
    "build_strategy",
    "get_strategy",
    "list_strategies",
    "register_strategy",
    "PhaseSearch",
    "RandomSearch",
    "RepeatJob",
    "RepeatOutcome",
    "mean_reward_trace",
    "run_grid",
    "SeparateSearch",
    "ThresholdRung",
    "ThresholdScheduleSearch",
    "default_rungs",
]
