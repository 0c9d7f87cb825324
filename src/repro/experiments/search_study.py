"""The Section III search-strategy study feeding Fig. 5 and Fig. 6.

For each scenario (unconstrained / 1 constraint / 2 constraints) and
each strategy (combined / phase / separate), run ``num_repeats``
independent searches over the enumerated micro space and keep the
archives.  Fig. 5 consumes the per-repeat best points and the top-100
reward-ranked Pareto points; Fig. 6 consumes the averaged reward
traces.

The study itself is **spec-driven**: the grid is declared as a
:class:`repro.core.study.StudySpec` (see the ``fig5`` / ``fig6``
presets in :mod:`repro.experiments.presets`) and materialized through
the strategy and accuracy-source registries by
:func:`repro.core.study.run_study`.  :func:`run_search_study` survives
as a deprecated shim that converts its legacy keyword arguments into a
spec — including arbitrary scenario-builder mappings, which inline as
declarative scenario dicts — so historical call sites keep producing
bit-identical results.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from pathlib import Path

from repro.core.evaluator import CodesignEvaluator
from repro.core.reward import RewardConfig
from repro.core.scenarios import resolve_scenarios, scenario_to_dict
from repro.core.study import StudySpec, run_study
from repro.experiments.common import Scale, SpaceBundle, load_bundle
from repro.parallel.cache import EvalCache
from repro.parallel.ledger import RunLedger
from repro.search.combined import CombinedSearch
from repro.search.phase import PhaseSearch
from repro.search.runner import RepeatOutcome
from repro.search.separate import SeparateSearch

__all__ = [
    "SearchStudyResult",
    "run_search_study",
    "top_pareto_by_reward",
    "make_bundle_evaluator",
    "legacy_study_spec",
]

STRATEGIES = {
    "combined": CombinedSearch,
    "phase": PhaseSearch,
    "separate": SeparateSearch,
}


def make_bundle_evaluator(
    bundle: SpaceBundle, scenario: RewardConfig
) -> CodesignEvaluator:
    """Database evaluator with the bundle's precomputed latency table."""
    evaluator = CodesignEvaluator.from_database(
        bundle.database, scenario, platform=bundle.platform
    )
    evaluator.attach_latency_table(
        bundle.latency_ms, bundle.row_of_hash(), bundle.space
    )
    return evaluator


def top_pareto_by_reward(
    bundle: SpaceBundle, scenario: RewardConfig, k: int = 100
) -> list[dict]:
    """Top-``k`` Pareto-optimal points under a scenario's reward.

    The reference set Fig. 5 plots: Pareto points of the full space,
    ranked by the experiment's reward function (infeasible Pareto
    points are excluded, as in the paper).
    """
    from repro.core.pareto import product_space_pareto, reward_ranked_points

    front = product_space_pareto(bundle.accuracy, bundle.area_mm2, bundle.latency_ms)
    return reward_ranked_points(front, scenario, k)


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

    def mean_final_rewards(self) -> dict[str, dict[str, float]]:
        """Scenario -> strategy -> mean best reward over repeats."""
        return {
            scenario: {
                strategy: outcome.mean_best_reward()
                for strategy, outcome in by_strategy.items()
            }
            for scenario, by_strategy in self.outcomes.items()
        }


def legacy_study_spec(
    bundle: SpaceBundle,
    scale: Scale,
    scenarios: dict | list | None = None,
    strategies: dict | None = None,
    master_seed: int = 0,
    backend: str = "serial",
    workers: int | None = None,
    batch_size: int = 1,
    checkpoint_every: int = 10,
    name: str = "search-study",
    hardware: str | dict | list | None = None,
    workload: str = "cnn-cell",
    surrogate: bool = False,
    exact_fraction: float = 0.25,
) -> StudySpec:
    """A :class:`StudySpec` equivalent to the legacy keyword arguments.

    ``scenarios`` accepts the historical forms: ``None`` (the paper's
    three), a list of registry names, or a name -> builder mapping.
    Builder mappings are *inlined*: each builder runs once against the
    bundle's bounds and its resulting config is embedded as a
    declarative scenario dict (the round trip is lossless, so results
    are unchanged — and the definition becomes serializable, which is
    what lets the ledger pin it).  ``strategies`` maps outcome keys to
    strategy classes; classes not yet in
    :mod:`repro.search.registry` are registered on the fly.
    ``hardware`` (a platform name, hardware-spec mapping, or a list of
    them — see :mod:`repro.hw`) selects the hardware backend(s);
    ``None`` keeps the reference ``dac2020``.  ``workload`` names a
    registered workload recipe (default the reference ``cnn-cell`` —
    see :mod:`repro.workloads`).  ``backend`` is an execution-backend
    registry name (``serial`` / ``process`` / ``cluster`` or a plugin
    — see :mod:`repro.parallel.pool`); validation happens in
    :class:`~repro.core.study.ExecutionSpec` against the registry, so
    every entry point rejects unknown names with the same message.
    """
    from repro.search.registry import register_strategy, strategy_name_of

    if scenarios is None:
        scenario_entries: tuple = (
            "unconstrained",
            "1-constraint",
            "2-constraints",
        )
    elif isinstance(scenarios, dict):
        entries = []
        for key, builder in scenarios.items():
            spec_dict = scenario_to_dict(builder(bundle.bounds))
            # The mapping key, not the config's own name, keys the
            # outcomes (and job labels) — honor it.
            spec_dict["name"] = key
            entries.append(spec_dict)
        scenario_entries = tuple(entries)
    else:
        scenario_entries = tuple(scenarios)

    strategy_entries = []
    for key, cls in (strategies or STRATEGIES).items():
        registered = strategy_name_of(cls)
        if registered is None:
            register_strategy(cls)
            registered = cls.name
        strategy_entries.append({"name": registered, "label": key})

    return StudySpec(
        name=name,
        strategies=tuple(strategy_entries),
        scenarios=scenario_entries,
        evaluator={"source": "database"},
        hardware=() if hardware is None else hardware,
        workload=workload,
        execution={
            "num_steps": scale.search_steps,
            "num_repeats": scale.num_repeats,
            "master_seed": master_seed,
            "batch_size": batch_size,
            "backend": backend,
            "workers": workers,
            "checkpoint_every": checkpoint_every,
            "surrogate": bool(surrogate),
            "exact_fraction": exact_fraction,
        },
    )


def _run_search_study(
    bundle: SpaceBundle | None = None,
    scale: Scale | None = None,
    scenarios: dict | list | None = None,
    strategies: dict | None = None,
    master_seed: int = 0,
    backend: str = "serial",
    workers: int | None = None,
    eval_cache: EvalCache | str | Path | None = None,
    batch_size: int = 1,
    ledger: RunLedger | str | Path | None = None,
    checkpoint_every: int = 10,
    name: str = "search-study",
    hardware: str | dict | list | None = None,
    workload: str = "cnn-cell",
    surrogate: bool = False,
    exact_fraction: float = 0.25,
) -> SearchStudyResult:
    """Legacy-argument front end over the spec-driven study engine."""
    bundle = bundle or load_bundle()
    scale = scale or Scale.from_env()
    if scenarios is not None and not isinstance(scenarios, (dict, list, tuple)):
        raise TypeError(
            f"scenarios must be a mapping, a list of names, or None, "
            f"got {type(scenarios).__name__}"
        )
    if isinstance(scenarios, (list, tuple)):
        scenarios = resolve_scenarios(scenarios)
    spec = legacy_study_spec(
        bundle,
        scale,
        scenarios=scenarios,
        strategies=strategies,
        master_seed=master_seed,
        backend=backend,
        workers=workers,
        batch_size=batch_size,
        checkpoint_every=checkpoint_every,
        name=name,
        hardware=hardware,
        workload=workload,
        surrogate=surrogate,
        exact_fraction=exact_fraction,
    )
    return run_study(
        spec, bundle=bundle, scale=scale, eval_cache=eval_cache, ledger=ledger
    )


def run_search_study(
    bundle: SpaceBundle | None = None,
    scale: Scale | None = None,
    scenarios: dict | list | None = None,
    strategies: dict | None = None,
    master_seed: int = 0,
    backend: str = "serial",
    workers: int | None = None,
    eval_cache: EvalCache | str | Path | None = None,
    batch_size: int = 1,
    ledger: RunLedger | str | Path | None = None,
    checkpoint_every: int = 10,
) -> SearchStudyResult:
    """Deprecated: build a :class:`StudySpec` and call ``run_study``.

    Kept as a thin shim — the arguments convert via
    :func:`legacy_study_spec` and run through the registry-driven
    engine, producing results bit-identical to the historic closure
    implementation (same per-repeat seeds, same evaluator wiring).
    The ledger now pins the derived ``spec.to_dict()``, so resuming
    still refuses any change to the experiment definition.
    """
    warnings.warn(
        "run_search_study is deprecated: declare the experiment as a "
        "repro.core.study.StudySpec (see repro.experiments.presets) and "
        "call repro.core.study.run_study",
        DeprecationWarning,
        stacklevel=2,
    )
    return _run_search_study(
        bundle,
        scale,
        scenarios=scenarios,
        strategies=strategies,
        master_seed=master_seed,
        backend=backend,
        workers=workers,
        eval_cache=eval_cache,
        batch_size=batch_size,
        ledger=ledger,
        checkpoint_every=checkpoint_every,
    )
