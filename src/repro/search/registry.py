"""Strategy registry: declarative name -> :class:`SearchStrategy` table.

Every shipped strategy registers itself at import time (the bottom of
its module calls :func:`register_strategy`), so a strategy is
constructible from nothing but its registered name plus a flat,
JSON-ready parameter mapping::

    from repro.search.registry import build_strategy

    strategy = build_strategy(
        "evolution", seed=7, search_space=space, population_size=25
    )

This is the factory layer behind :class:`repro.core.study.StudySpec`:
a spec names strategies as ``{"name": ..., "params": {...}}`` and the
study builder resolves them here.  Third-party strategies join the
same table with ``register_strategy(MyStrategy)`` (or as a class
decorator) and become spec-constructible with no further wiring.

The table is a :class:`repro.utils.registry.Registry`, so names,
duplicates and bad parameters behave as in every other registry.
Lookups lazily import the built-in strategy modules, so consumers may
import this module alone without pulling in ``repro.search`` first.
"""

from __future__ import annotations

from typing import Iterable

from repro.search.base import SearchStrategy
from repro.utils.registry import Registry, check_params

__all__ = [
    "StrategyError",
    "register_strategy",
    "get_strategy",
    "strategy_name_of",
    "list_strategies",
    "validate_strategy_params",
    "build_strategy",
]


class StrategyError(ValueError):
    """A strategy name or its declarative params could not be resolved."""


#: The six built-in strategy modules are imported on the first lookup,
#: so each can register itself without import cycles.
_REGISTRY: Registry[type[SearchStrategy]] = Registry(
    "strategy",
    StrategyError,
    builtins=(
        "repro.search.combined",
        "repro.search.evolution",
        "repro.search.phase",
        "repro.search.random_search",
        "repro.search.separate",
        "repro.search.threshold_schedule",
    ),
)


def register_strategy(
    cls: type[SearchStrategy] | None = None,
    name: str | None = None,
    overwrite: bool = False,
):
    """Register a strategy class under ``name`` (default ``cls.name``).

    Usable directly (``register_strategy(MyStrategy)``) or as a class
    decorator; follows the :class:`~repro.utils.registry.Registry`
    duplicate policy (the same class again is a no-op).
    """

    def _register(strategy_cls: type[SearchStrategy]) -> type[SearchStrategy]:
        return _REGISTRY.register(name or strategy_cls.name, strategy_cls, overwrite)

    return _register if cls is None else _register(cls)


def list_strategies() -> list[str]:
    """Registered strategy names, sorted."""
    return _REGISTRY.names()


def get_strategy(name: str) -> type[SearchStrategy]:
    """The strategy class registered under ``name``."""
    return _REGISTRY.get(name)


def strategy_name_of(cls: type[SearchStrategy]) -> str | None:
    """The name ``cls`` is registered under, or ``None``."""
    for name, registered in _REGISTRY.items():
        if registered is cls:
            return name
    return None


def validate_strategy_params(name: str, params: dict | None) -> None:
    """Check ``params`` names against the strategy's constructor.

    Raises :class:`StrategyError` naming the strategy and the unknown
    field(s); value errors are left to construction time (some require
    the search space).
    """
    check_params(
        f"strategy {name!r}", params, get_strategy(name).allowed_params(), StrategyError
    )


def build_strategy(
    name: str,
    seed,
    search_space=None,
    **params,
) -> SearchStrategy:
    """Construct a registered strategy from its flat parameter mapping."""
    cls = get_strategy(name)
    try:
        return cls.from_params(seed, search_space, **params)
    except StrategyError:
        raise
    except ValueError as err:
        raise StrategyError(str(err)) from err


def iter_registered() -> Iterable[tuple[str, type[SearchStrategy]]]:
    """(name, class) pairs currently registered."""
    return _REGISTRY.items()
