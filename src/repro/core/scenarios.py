"""Reward scenarios: the paper's three, plus a declarative registry.

Three NASBench scenarios drive the Fig. 5/6 search-strategy study:

1. **Unconstrained** — no thresholds, weights (0.1, 0.8, 0.1) over
   (area, latency, accuracy): sweep the space for good points.
2. **1 Constraint** — latency < 100 ms, weights (0.1, 0, 0.9): a known
   real-time budget, best accuracy per device size.
3. **2 Constraints** — accuracy > 92% and area < 100 mm2, optimizing
   latency alone: a common deployment use-case.

Section IV replaces thresholds on raw metrics with one combined
perf/area >= threshold constraint while maximizing accuracy;
:func:`cifar100_threshold` builds those scenarios,
:data:`CIFAR100_THRESHOLD_SCHEDULE` is the paper's (2, 8, 16, 30, 40)
img/s/cm2 ladder and :data:`CIFAR100_BOUNDS` the metric ranges they
normalize over.

Beyond the paper, this module is a **scenario registry**: named
:class:`~repro.core.reward.RewardConfig` builders registered in a
:class:`~repro.utils.registry.Registry` (:func:`register_scenario`),
resolvable by name
(:func:`get_scenario` — including the parametric ``perf-area>=X``
family), declarable as plain JSON (:func:`scenario_from_dict` /
:func:`scenario_to_dict` round-trip losslessly), and loadable from
spec files (:func:`load_scenario_file`) so arbitrary
latency/area/accuracy constraint scenarios can drive any search
strategy, the Fig. 5/6 grids, and Pareto sweeps without code changes.

A scenario *builder* is a callable ``builder(bounds=None) ->
RewardConfig``: experiments pass their space's measured
:class:`~repro.core.reward.MetricBounds` so normalization matches the
enumerated space; a builder whose spec pins explicit bounds ignores
the argument.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from repro.core.reward import Constraints, MetricBounds, RewardConfig
from repro.utils.registry import Registry

__all__ = [
    "unconstrained",
    "one_constraint",
    "two_constraints",
    "cifar100_threshold",
    "CIFAR100_BOUNDS",
    "make_scenario",
    "PAPER_SCENARIOS",
    "CIFAR100_THRESHOLD_SCHEDULE",
    "ScenarioError",
    "ScenarioBuilder",
    "register_scenario",
    "get_scenario",
    "get_scenario_builder",
    "list_scenarios",
    "resolve_scenarios",
    "scenario_from_dict",
    "scenario_to_dict",
    "load_scenario_file",
]

ScenarioBuilder = Callable[..., RewardConfig]


class ScenarioError(ValueError):
    """A scenario name or declarative spec could not be resolved."""


def unconstrained(bounds: MetricBounds | None = None) -> RewardConfig:
    """Scenario 1: no constraints, w(area, lat, acc) = (0.1, 0.8, 0.1)."""
    return RewardConfig(
        weights=(0.1, 0.8, 0.1),
        constraints=Constraints(),
        bounds=bounds or MetricBounds(),
        name="unconstrained",
    )


def one_constraint(bounds: MetricBounds | None = None) -> RewardConfig:
    """Scenario 2: latency < 100 ms, w(area, lat, acc) = (0.1, 0, 0.9)."""
    return RewardConfig(
        weights=(0.1, 0.0, 0.9),
        constraints=Constraints(max_latency_ms=100.0),
        bounds=bounds or MetricBounds(),
        name="1-constraint",
    )


def two_constraints(bounds: MetricBounds | None = None) -> RewardConfig:
    """Scenario 3: acc > 92%, area < 100 mm2; optimize latency only."""
    return RewardConfig(
        weights=(0.0, 1.0, 0.0),
        constraints=Constraints(max_area_mm2=100.0, min_accuracy=92.0),
        bounds=bounds or MetricBounds(),
        name="2-constraints",
    )


#: Metric bounds of the CIFAR-100 joint space (accuracy is CIFAR-100).
CIFAR100_BOUNDS = MetricBounds(
    area_mm2=(50.0, 210.0), latency_ms=(3.0, 1400.0), accuracy=(55.0, 76.5)
)


def cifar100_threshold(
    threshold: float, bounds: MetricBounds | None = None
) -> RewardConfig:
    """Section IV scenario: perf/area >= threshold, maximize accuracy."""
    return RewardConfig(
        weights=(0.0, 0.0, 1.0),
        constraints=Constraints(min_perf_per_area=threshold),
        bounds=bounds or MetricBounds(),
        name=f"perf-area>={threshold:g}",
    )


def make_scenario(
    name: str,
    weights: tuple[float, float, float],
    bounds: MetricBounds | None = None,
    punishment_scale: float = 1.0,
    **constraint_kwargs: float | None,
) -> RewardConfig:
    """Compose an arbitrary scenario from weights + constraint kwargs.

    ``constraint_kwargs`` are the :class:`~repro.core.reward.Constraints`
    fields (``max_area_mm2``, ``max_latency_ms``, ``min_accuracy``,
    ``min_perf_per_area``).
    """
    return RewardConfig(
        weights=tuple(weights),
        constraints=Constraints(**constraint_kwargs),
        bounds=bounds or MetricBounds(),
        punishment_scale=punishment_scale,
        name=name,
    )


#: Scenario name -> constructor, as evaluated in Fig. 5 and Fig. 6.
PAPER_SCENARIOS = {
    "unconstrained": unconstrained,
    "1-constraint": one_constraint,
    "2-constraints": two_constraints,
}

#: The gradually increasing perf/area thresholds of Section IV-A.
CIFAR100_THRESHOLD_SCHEDULE = (2.0, 8.0, 16.0, 30.0, 40.0)

#: The parametric Section IV family: ``perf-area>=<threshold>``.
_THRESHOLD_PREFIX = "perf-area>="

# --- the registry ---------------------------------------------------------

_REGISTRY: Registry[ScenarioBuilder] = Registry("scenario", ScenarioError)


def register_scenario(
    name: str, builder: ScenarioBuilder | None = None, overwrite: bool = False
):
    """Register ``builder`` under ``name`` (usable as a decorator).

    Builders take an optional ``bounds`` argument, like the paper
    scenario constructors above.
    """

    def _register(fn: ScenarioBuilder) -> ScenarioBuilder:
        return _REGISTRY.register(name, fn, overwrite)

    return _register if builder is None else _register(builder)


def list_scenarios() -> list[str]:
    """Registered scenario names (the parametric family excluded)."""
    return _REGISTRY.names()


def get_scenario_builder(name: str) -> ScenarioBuilder:
    """Builder for ``name``; understands ``perf-area>=X`` parametrics."""
    if name.startswith(_THRESHOLD_PREFIX) and name not in _REGISTRY:
        try:
            threshold = float(name[len(_THRESHOLD_PREFIX):])
        except ValueError:
            raise ScenarioError(
                f"malformed parametric scenario {name!r}: expected "
                f"{_THRESHOLD_PREFIX}<number>"
            ) from None
        return lambda bounds=None: cifar100_threshold(threshold, bounds)
    try:
        return _REGISTRY.get(name)
    except ScenarioError as err:
        raise ScenarioError(
            f"{err} (or the parametric {_THRESHOLD_PREFIX}<number>)"
        ) from None


def get_scenario(name: str, bounds: MetricBounds | None = None) -> RewardConfig:
    """Resolve a registered (or parametric) scenario name to a config."""
    return get_scenario_builder(name)(bounds)


def resolve_scenarios(
    names=None, scenario_file: str | Path | None = None
) -> dict[str, ScenarioBuilder]:
    """Scenario table for an experiment grid: name -> builder.

    ``names`` selects registered/parametric scenarios;
    ``scenario_file`` contributes every spec in a JSON file.  With
    neither, the paper's three scenarios are returned.
    """
    out: dict[str, ScenarioBuilder] = {}
    for name in names or ():
        out[name] = get_scenario_builder(name)
    if scenario_file is not None:
        for name, builder in load_scenario_file(scenario_file).items():
            if name in out:
                raise ScenarioError(
                    f"scenario {name!r} selected by name AND defined in "
                    f"{scenario_file} — rename the file spec (a silent "
                    "override would mislabel results)"
                )
            out[name] = builder
    return out or dict(PAPER_SCENARIOS)


for _name, _builder in PAPER_SCENARIOS.items():
    register_scenario(_name, _builder)
for _threshold in CIFAR100_THRESHOLD_SCHEDULE:
    register_scenario(
        f"{_THRESHOLD_PREFIX}{_threshold:g}",
        lambda bounds=None, _t=_threshold: cifar100_threshold(_t, bounds),
    )


# --- declarative (JSON) scenarios -----------------------------------------

_CONSTRAINT_FIELDS = (
    "max_area_mm2",
    "max_latency_ms",
    "min_accuracy",
    "min_perf_per_area",
)
_BOUND_FIELDS = ("area_mm2", "latency_ms", "accuracy")
_SPEC_FIELDS = {"name", "weights", "constraints", "bounds", "punishment_scale"}


def _require_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{what} must be a number, got {value!r}")
    return float(value)


def scenario_from_dict(
    data: dict, bounds: MetricBounds | None = None
) -> RewardConfig:
    """Build a scenario from its declarative (JSON-ready) spec.

    Spec keys: ``name`` (required), ``weights`` (required, three
    non-negative numbers over area/latency/accuracy), ``constraints``
    (optional mapping of threshold fields), ``bounds`` (optional
    mapping of ``[lo, hi]`` metric ranges; defaults to the ``bounds``
    argument, i.e. the calling experiment's space), and
    ``punishment_scale`` (optional).  Malformed specs raise
    :class:`ScenarioError` with a message naming the offending field.
    """
    if not isinstance(data, dict):
        raise ScenarioError(f"scenario spec must be a mapping, got {type(data).__name__}")
    unknown = set(data) - _SPEC_FIELDS
    if unknown:
        raise ScenarioError(
            f"unknown scenario spec field(s) {sorted(unknown)}; "
            f"allowed: {sorted(_SPEC_FIELDS)}"
        )
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError("scenario spec needs a non-empty string 'name'")
    weights = data.get("weights")
    if not isinstance(weights, (list, tuple)) or len(weights) != 3:
        raise ScenarioError(
            f"scenario {name!r}: 'weights' must be three numbers "
            "(area, latency, accuracy)"
        )
    weights = tuple(_require_number(w, f"scenario {name!r}: weight") for w in weights)
    if any(w < 0 for w in weights):
        raise ScenarioError(f"scenario {name!r}: weights must be non-negative")

    constraint_spec = data.get("constraints", {})
    if not isinstance(constraint_spec, dict):
        raise ScenarioError(f"scenario {name!r}: 'constraints' must be a mapping")
    unknown = set(constraint_spec) - set(_CONSTRAINT_FIELDS)
    if unknown:
        raise ScenarioError(
            f"scenario {name!r}: unknown constraint(s) {sorted(unknown)}; "
            f"allowed: {list(_CONSTRAINT_FIELDS)}"
        )
    constraints = {}
    for field in _CONSTRAINT_FIELDS:
        value = constraint_spec.get(field)
        if value is None:
            continue
        value = _require_number(value, f"scenario {name!r}: constraint {field}")
        if value <= 0:
            raise ScenarioError(
                f"scenario {name!r}: constraint {field} must be positive, got {value}"
            )
        constraints[field] = value

    bound_spec = data.get("bounds")
    if bound_spec is None:
        resolved_bounds = bounds or MetricBounds()
    else:
        if not isinstance(bound_spec, dict):
            raise ScenarioError(f"scenario {name!r}: 'bounds' must be a mapping")
        unknown = set(bound_spec) - set(_BOUND_FIELDS)
        if unknown:
            raise ScenarioError(
                f"scenario {name!r}: unknown bound(s) {sorted(unknown)}; "
                f"allowed: {list(_BOUND_FIELDS)}"
            )
        ranges = {}
        defaults = bounds or MetricBounds()
        for field in _BOUND_FIELDS:
            if field not in bound_spec:
                ranges[field] = getattr(defaults, field)
                continue
            pair = bound_spec[field]
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ScenarioError(
                    f"scenario {name!r}: bound {field} must be [lo, hi]"
                )
            lo = _require_number(pair[0], f"scenario {name!r}: bound {field} lo")
            hi = _require_number(pair[1], f"scenario {name!r}: bound {field} hi")
            if not lo < hi:
                raise ScenarioError(
                    f"scenario {name!r}: bound {field} needs lo < hi, got [{lo}, {hi}]"
                )
            ranges[field] = (lo, hi)
        resolved_bounds = MetricBounds(**ranges)

    punishment = data.get("punishment_scale", 1.0)
    punishment = _require_number(punishment, f"scenario {name!r}: punishment_scale")
    if punishment <= 0:
        raise ScenarioError(
            f"scenario {name!r}: punishment_scale must be positive, got {punishment}"
        )
    return RewardConfig(
        weights=weights,
        constraints=Constraints(**constraints),
        bounds=resolved_bounds,
        punishment_scale=punishment,
        name=name,
    )


def scenario_to_dict(config: RewardConfig) -> dict:
    """Declarative spec of ``config``; inverse of :func:`scenario_from_dict`.

    ``scenario_from_dict(scenario_to_dict(c)) == c`` for any config
    (bounds are always serialized, so the round trip is bounds-exact).
    """
    constraints = {
        field: getattr(config.constraints, field)
        for field in _CONSTRAINT_FIELDS
        if getattr(config.constraints, field) is not None
    }
    return {
        "name": config.name,
        "weights": list(config.weights),
        "constraints": constraints,
        "bounds": {
            field: list(getattr(config.bounds, field)) for field in _BOUND_FIELDS
        },
        "punishment_scale": config.punishment_scale,
    }


def load_scenario_file(path: str | Path) -> dict[str, ScenarioBuilder]:
    """Load scenario builders from a JSON spec file.

    The file holds one spec object or a list of them (see
    :func:`scenario_from_dict`).  Returned builders accept the usual
    optional ``bounds``, which fills any ranges the spec left out.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {err}") from None
    specs = payload if isinstance(payload, list) else [payload]
    builders: dict[str, ScenarioBuilder] = {}
    for spec in specs:
        config = scenario_from_dict(spec)  # validate eagerly, fail loudly
        if config.name in builders:
            raise ScenarioError(
                f"scenario file {path} defines {config.name!r} twice"
            )
        builders[config.name] = (
            lambda bounds=None, _spec=spec: scenario_from_dict(_spec, bounds)
        )
    return builders
