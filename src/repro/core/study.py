"""Declarative study API: spec-driven experiment construction.

The paper's experiment grids (strategies x scenarios x repeats, Figs.
5-7, Tables 2-3) used to be assembled by hand-rolled closures — every
caller built ``strategy_factory`` / ``evaluator_factory`` lambdas and
threaded a dozen keyword arguments through
:func:`repro.search.runner.run_grid`.  A :class:`StudySpec` replaces
that plumbing with one JSON-round-trippable value object:

* ``strategies`` — registered strategy names plus flat params
  (:mod:`repro.search.registry`);
* ``scenarios`` — scenario registry names, the parametric
  ``perf-area>=N`` family, or inline declarative scenario dicts
  (:mod:`repro.core.scenarios`);
* ``evaluator`` — a registered accuracy source (``database`` /
  ``surrogate`` / ``cifar100-trainer``) plus its params
  (:mod:`repro.core.evaluator`);
* ``hardware`` — one registered hardware platform (``dac2020`` /
  ``dac2020-scaled`` / ``embedded-lite``, :mod:`repro.hw`) plus its
  params, or a *list* of them for a cross-platform sweep: the grid
  then runs once per platform, outcomes key as
  ``<platform>:<scenario>`` and each platform's evaluations live in
  their own cache/ledger namespace;
* ``execution`` — steps, repeats, seed, batch size, backend, workers,
  cache/ledger paths, checkpoint cadence.

:func:`build_study` materializes the spec into
:class:`repro.search.runner.RepeatJob` bags through the registries;
:func:`run_study` drives the grid and returns a
:class:`repro.experiments.search_study.SearchStudyResult`; it is the
one way a grid runs, ``repro run fig5|fig6|fig5+6`` included.
Because the whole definition is one plain dict, the run ledger pins
``spec.to_dict()`` automatically — resuming a spec-driven run with
*any* edited spec is refused instead of silently mixing incompatible
results — and every experiment is runnable from a file: ``repro
study run my_study.json``.

Specs compare by value and round-trip losslessly::

    StudySpec.from_dict(spec.to_dict()) == spec
    StudySpec.from_json(spec.to_json()) == spec

``from_dict`` validates eagerly against the registries: unknown
strategy or scenario names, unknown accuracy sources, bad parameter
names/types, and conflicting scenario references all raise
:class:`StudyError` with a message naming the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.core.reward import RewardConfig
from repro.core.scenarios import (
    ScenarioError,
    get_scenario_builder,
    scenario_from_dict,
)

__all__ = [
    "StudyError",
    "StrategySpec",
    "EvaluatorSpec",
    "HardwareSpec",
    "ExecutionSpec",
    "StudySpec",
    "Study",
    "build_study",
    "run_study",
    "parse_assignments",
    "new_study_id",
    "outcome_summary",
]


class StudyError(ValueError):
    """A study spec could not be validated, resolved, or materialized."""


# ---------------------------------------------------------------------------
# Canonicalization helpers
# ---------------------------------------------------------------------------

def _jsonify(value: Any, where: str) -> Any:
    """Canonical JSON form of ``value`` (tuples -> lists, keys -> str).

    Specs compare by value, so both construction paths — Python
    literals in presets and parsed JSON from files — must normalize to
    identical structures.  Non-JSON values raise :class:`StudyError`
    naming the field.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonify(v, where) for v in value]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise StudyError(f"{where}: mapping keys must be strings, got {key!r}")
            out[key] = _jsonify(item, where)
        return out
    raise StudyError(
        f"{where}: {value!r} is not JSON-representable "
        "(specs hold only plain numbers, strings, lists, and mappings)"
    )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise StudyError(message)


def _check_int(value, what: str, minimum: int | None = None, optional: bool = False):
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise StudyError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise StudyError(f"{what} must be >= {minimum}, got {value}")
    return value


def _check_fields(data: dict, allowed: set, what: str) -> None:
    _require(isinstance(data, dict), f"{what} must be a mapping, got {type(data).__name__}")
    unknown = sorted(set(data) - allowed)
    _require(not unknown, f"{what}: unknown field(s) {unknown}; allowed: {sorted(allowed)}")


# ---------------------------------------------------------------------------
# Spec value objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrategySpec:
    """One search strategy: registered name + flat constructor params.

    ``label`` keys the strategy inside the study's outcomes (and in
    job labels / ledger rows); it defaults to ``name``, and must be
    set when the same strategy appears twice with different params.
    """

    name: str
    params: dict = field(default_factory=dict)
    label: str | None = None

    def __post_init__(self) -> None:
        _require(
            isinstance(self.name, str) and bool(self.name),
            "strategy spec needs a non-empty string 'name'",
        )
        object.__setattr__(
            self, "params", _jsonify(self.params, f"strategy {self.name!r} params")
        )
        if self.label is not None:
            _require(
                isinstance(self.label, str) and bool(self.label),
                f"strategy {self.name!r}: 'label' must be a non-empty string",
            )

    @property
    def effective_label(self) -> str:
        return self.label if self.label is not None else self.name

    def _fields_dict(self) -> dict:
        return {
            "name": self.name,
            "params": _jsonify(self.params, "params"),
            "label": self.label,
        }

    def to_dict(self) -> dict:
        out = self._fields_dict()
        if self.label is None:
            del out["label"]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "StrategySpec":
        _check_fields(data, {"name", "params", "label"}, "strategy spec")
        return cls(
            name=data.get("name"),
            params=data.get("params") or {},
            label=data.get("label"),
        )


@dataclass(frozen=True)
class EvaluatorSpec:
    """The accuracy source behind ``E(s)``: registered name + params."""

    source: str = "database"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(
            isinstance(self.source, str) and bool(self.source),
            "evaluator spec needs a non-empty string 'source'",
        )
        object.__setattr__(
            self,
            "params",
            _jsonify(self.params, f"evaluator source {self.source!r} params"),
        )

    def to_dict(self) -> dict:
        return {"source": self.source, "params": _jsonify(self.params, "params")}

    @classmethod
    def from_dict(cls, data: dict) -> "EvaluatorSpec":
        _check_fields(data, {"source", "params"}, "evaluator spec")
        return cls(source=data.get("source", "database"), params=data.get("params") or {})


@dataclass(frozen=True)
class HardwareSpec:
    """The hardware backend of ``E(s)``: registered platform + params.

    ``label`` keys the platform inside a cross-platform sweep's
    outcomes (and in job labels / ledger rows); it defaults to
    ``name`` and must be set when the same platform appears twice with
    different params.

    ``tensorize`` is kept only so archived specs that set it still
    parse, pin and resume byte-identically; it selects nothing.
    """

    name: str = "dac2020"
    params: dict = field(default_factory=dict)
    label: str | None = None
    tensorize: bool | None = None

    def __post_init__(self) -> None:
        _require(
            isinstance(self.name, str) and bool(self.name),
            "hardware spec needs a non-empty string 'name'",
        )
        object.__setattr__(
            self, "params", _jsonify(self.params, f"hardware {self.name!r} params")
        )
        if self.label is not None:
            _require(
                isinstance(self.label, str) and bool(self.label),
                f"hardware {self.name!r}: 'label' must be a non-empty string",
            )
        _require(
            self.tensorize is None or isinstance(self.tensorize, bool),
            f"hardware {self.name!r}: 'tensorize' must be true, false, or "
            f"null, got {self.tensorize!r}",
        )

    @property
    def effective_label(self) -> str:
        return self.label if self.label is not None else self.name

    def _fields_dict(self) -> dict:
        return {
            "name": self.name,
            "params": _jsonify(self.params, "params"),
            "label": self.label,
            "tensorize": self.tensorize,
        }

    def to_dict(self) -> dict:
        out = self._fields_dict()
        if self.label is None:
            del out["label"]
        if self.tensorize is None:
            # Written back only when an archived spec carried it, so
            # ledger-pinned spec dicts stay byte-identical.
            del out["tensorize"]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "HardwareSpec":
        _check_fields(data, {"name", "params", "label", "tensorize"}, "hardware spec")
        return cls(
            name=data.get("name", "dac2020"),
            params=data.get("params") or {},
            label=data.get("label"),
            tensorize=data.get("tensorize"),
        )


@dataclass(frozen=True)
class ExecutionSpec:
    """How the grid runs: budget, seeding, backend, persistence.

    ``num_steps`` / ``num_repeats`` left as ``None`` resolve from the
    ambient :class:`repro.experiments.common.Scale` at run time, so one
    preset serves smoke, default, and paper scales.  ``cache`` /
    ``ledger`` are file paths (the live objects can also be passed to
    :func:`run_study` directly, overriding the spec).  ``tensorize``
    is kept only so archived specs that set it still parse, pin and
    resume byte-identically; it selects nothing.

    ``backend`` names a registered execution backend
    (:func:`repro.parallel.pool.list_backends` — built-ins: serial,
    process, cluster) and ``backend_params`` is its flat constructor
    mapping (e.g. ``{"stale_after": 5.0}`` for cluster), validated
    against the backend class at spec time.
    """

    num_steps: int | None = None
    num_repeats: int | None = None
    master_seed: int = 0
    batch_size: int = 1
    backend: str = "serial"
    backend_params: dict = field(default_factory=dict)
    workers: int | None = None
    cache: str | None = None
    ledger: str | None = None
    checkpoint_every: int = 10
    tensorize: bool = False
    surrogate: bool = False
    exact_fraction: float = 0.25

    def __post_init__(self) -> None:
        _require(
            isinstance(self.tensorize, bool),
            f"execution.tensorize must be true or false, got {self.tensorize!r}",
        )
        _require(
            isinstance(self.surrogate, bool),
            f"execution.surrogate must be true or false, got {self.surrogate!r}",
        )
        _require(
            isinstance(self.exact_fraction, (int, float))
            and not isinstance(self.exact_fraction, bool)
            and 0.0 < float(self.exact_fraction) <= 1.0,
            "execution.exact_fraction must be a number in (0, 1], got "
            f"{self.exact_fraction!r}",
        )
        object.__setattr__(self, "exact_fraction", float(self.exact_fraction))
        # to_dict drops exact_fraction with the mode off, so a value set
        # there would change nothing and vanish on a round trip.
        _require(
            self.surrogate or self.exact_fraction == ExecutionSpec.exact_fraction,
            "execution.exact_fraction only shapes two-tier batches; set "
            "execution.surrogate to true or leave exact_fraction at "
            f"{ExecutionSpec.exact_fraction}, got {self.exact_fraction!r}",
        )
        _check_int(self.num_steps, "execution.num_steps", 1, optional=True)
        _check_int(self.num_repeats, "execution.num_repeats", 1, optional=True)
        _check_int(self.master_seed, "execution.master_seed")
        _check_int(self.batch_size, "execution.batch_size", 1)
        _check_int(self.checkpoint_every, "execution.checkpoint_every", 1)
        _check_int(self.workers, "execution.workers", 1, optional=True)
        _require(
            isinstance(self.backend, str) and bool(self.backend),
            f"execution.backend must be a backend name string, got {self.backend!r}",
        )
        object.__setattr__(
            self,
            "backend_params",
            _jsonify(self.backend_params, "execution.backend_params"),
        )
        # The registry is the single validator of backend names and
        # their params — error messages cannot drift from the CLI's or
        # run_grid's, because they all ask the same table.
        from repro.parallel.pool import BackendError, validate_backend_params

        try:
            validate_backend_params(self.backend, self.backend_params)
        except BackendError as err:
            raise StudyError(f"execution spec: {err}") from None
        for name in ("cache", "ledger"):
            value = getattr(self, name)
            _require(
                value is None or (isinstance(value, str) and bool(value)),
                f"execution.{name} must be null or a file path string, got {value!r}",
            )

    def _fields_dict(self) -> dict:
        return {
            "num_steps": self.num_steps,
            "num_repeats": self.num_repeats,
            "master_seed": self.master_seed,
            "batch_size": self.batch_size,
            "backend": self.backend,
            "workers": self.workers,
            "cache": self.cache,
            "ledger": self.ledger,
            "checkpoint_every": self.checkpoint_every,
            "backend_params": _jsonify(self.backend_params, "backend_params"),
            "tensorize": self.tensorize,
            "surrogate": self.surrogate,
            "exact_fraction": self.exact_fraction,
        }

    def to_dict(self) -> dict:
        out = self._fields_dict()
        if not self.backend_params:
            # Omitted when empty (like tensorize below), so spec dicts
            # from before backend params existed — including
            # ledger-pinned ones — stay byte-identical and resumable.
            del out["backend_params"]
        if not self.tensorize:
            # Written back only when an archived spec set it, so
            # ledger-pinned spec dicts stay byte-identical and resumable.
            del out["tensorize"]
        if not self.surrogate:
            # Same omission contract: two-tier fields only appear when
            # the mode is armed, so pre-surrogate spec dicts —
            # including ledger-pinned ones — stay byte-identical.
            del out["surrogate"], out["exact_fraction"]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionSpec":
        _check_fields(
            data,
            {
                "num_steps",
                "num_repeats",
                "master_seed",
                "batch_size",
                "backend",
                "backend_params",
                "workers",
                "cache",
                "ledger",
                "checkpoint_every",
                "tensorize",
                "surrogate",
                "exact_fraction",
            },
            "execution spec",
        )
        defaults = cls()
        fields = (
            "num_steps", "num_repeats", "master_seed", "batch_size", "backend",
            "workers", "cache", "ledger", "checkpoint_every", "tensorize",
            "surrogate", "exact_fraction",
        )
        return cls(
            backend_params=data.get("backend_params") or {},
            **{f: data.get(f, getattr(defaults, f)) for f in fields},
        )


def _scenario_key(entry) -> str:
    """The outcome/label key of one scenarios entry."""
    if isinstance(entry, str):
        return entry
    return entry.get("name", "<unnamed>")


@dataclass(frozen=True)
class StudySpec:
    """A complete, serializable experiment-grid definition.

    ``workload`` names the model family being searched
    (:mod:`repro.workloads`); it defaults to the reference
    ``cnn-cell`` recipe and is omitted from serialized dicts at that
    default, so every pre-workload spec — including ledger-pinned
    ones — stays byte-identical and resumable.
    """

    name: str
    strategies: tuple = ()
    scenarios: tuple = ()
    evaluator: EvaluatorSpec = field(default_factory=EvaluatorSpec)
    hardware: tuple = ()
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    workload: str = "cnn-cell"

    def __post_init__(self) -> None:
        _require(
            isinstance(self.name, str) and bool(self.name),
            "study spec needs a non-empty string 'name'",
        )
        _require(
            isinstance(self.workload, str) and bool(self.workload),
            f"study {self.name!r}: 'workload' must be a non-empty string",
        )
        strategies = tuple(
            s if isinstance(s, StrategySpec) else StrategySpec.from_dict(s)
            for s in self.strategies
        )
        _require(bool(strategies), f"study {self.name!r}: 'strategies' must not be empty")
        object.__setattr__(self, "strategies", strategies)
        labels = [s.effective_label for s in strategies]
        dupes = sorted({l for l in labels if labels.count(l) > 1})
        _require(
            not dupes,
            f"study {self.name!r}: duplicate strategy label(s) {dupes} — give "
            "repeated strategies distinct 'label' fields",
        )
        scenarios = []
        for entry in self.scenarios:
            if isinstance(entry, str):
                _require(
                    bool(entry),
                    f"study {self.name!r}: scenario names must be non-empty",
                )
                scenarios.append(entry)
            elif isinstance(entry, dict):
                scenarios.append(_jsonify(entry, f"study {self.name!r} scenario"))
            else:
                raise StudyError(
                    f"study {self.name!r}: each scenario is a registry name "
                    f"(string) or an inline spec (mapping), got {entry!r}"
                )
        _require(bool(scenarios), f"study {self.name!r}: 'scenarios' must not be empty")
        keys = [_scenario_key(e) for e in scenarios]
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        _require(
            not dupes,
            f"study {self.name!r}: scenario(s) {dupes} referenced more than "
            "once (by name and/or inline spec) — outcomes would collide",
        )
        object.__setattr__(self, "scenarios", tuple(scenarios))
        if not isinstance(self.evaluator, EvaluatorSpec):
            object.__setattr__(
                self, "evaluator", EvaluatorSpec.from_dict(self.evaluator)
            )
        hardware = self.hardware
        if hardware is None or (isinstance(hardware, tuple) and not hardware):
            hardware = (HardwareSpec(),)
        elif isinstance(hardware, (str, dict, HardwareSpec)):
            hardware = (hardware,)
        elif not isinstance(hardware, (list, tuple)):
            raise StudyError(
                f"study {self.name!r}: 'hardware' is a platform name, a "
                f"hardware spec mapping, or a list of them, got {hardware!r}"
            )
        normalized = []
        for entry in hardware:
            if isinstance(entry, HardwareSpec):
                normalized.append(entry)
            elif isinstance(entry, str):
                _require(
                    bool(entry),
                    f"study {self.name!r}: hardware names must be non-empty",
                )
                normalized.append(HardwareSpec(name=entry))
            elif isinstance(entry, dict):
                normalized.append(HardwareSpec.from_dict(entry))
            else:
                raise StudyError(
                    f"study {self.name!r}: each hardware entry is a platform "
                    f"name (string) or a spec (mapping), got {entry!r}"
                )
        labels = [h.effective_label for h in normalized]
        dupes = sorted({l for l in labels if labels.count(l) > 1})
        _require(
            not dupes,
            f"study {self.name!r}: duplicate hardware label(s) {dupes} — give "
            "repeated platforms distinct 'label' fields",
        )
        object.__setattr__(self, "hardware", tuple(normalized))
        if not isinstance(self.execution, ExecutionSpec):
            object.__setattr__(
                self, "execution", ExecutionSpec.from_dict(self.execution)
            )

    # -- serialization -----------------------------------------------------
    def _fields_dict(self) -> dict:
        """Every field ``from_dict`` accepts, nested specs included.

        :meth:`with_overrides` edits this form, so a path reaches any
        field; :meth:`to_dict` alone decides which defaults to omit.
        """
        hardware = [h._fields_dict() for h in self.hardware]
        return {
            "name": self.name,
            "strategies": [s._fields_dict() for s in self.strategies],
            "scenarios": [
                s if isinstance(s, str) else _jsonify(s, "scenario")
                for s in self.scenarios
            ],
            "evaluator": self.evaluator.to_dict(),
            "hardware": hardware[0] if len(hardware) == 1 else hardware,
            "execution": self.execution._fields_dict(),
            "workload": self.workload,
        }

    def to_dict(self) -> dict:
        out = self._fields_dict()
        hardware = [h.to_dict() for h in self.hardware]
        out.update(
            strategies=[s.to_dict() for s in self.strategies],
            hardware=hardware[0] if len(hardware) == 1 else hardware,
            execution=self.execution.to_dict(),
        )
        if self.hardware == (HardwareSpec(),):
            # The implicit reference platform serializes to nothing, so
            # pre-platform spec dicts — including the ones crash-safe
            # ledgers pinned before this field existed — stay
            # byte-identical and remain resumable.
            del out["hardware"]
        if self.workload == "cnn-cell":
            # Same omission contract as 'hardware': the reference
            # workload serializes to nothing, keeping pre-workload spec
            # dicts byte-identical.
            del out["workload"]
        return out

    @classmethod
    def from_dict(cls, data: dict, validate: bool = True) -> "StudySpec":
        _check_fields(
            data,
            {"name", "strategies", "scenarios", "evaluator", "hardware",
             "execution", "workload"},
            "study spec",
        )
        strategies = data.get("strategies")
        _require(
            isinstance(strategies, (list, tuple)),
            "study spec: 'strategies' must be a list",
        )
        scenarios = data.get("scenarios")
        _require(
            isinstance(scenarios, (list, tuple)),
            "study spec: 'scenarios' must be a list",
        )
        spec = cls(
            name=data.get("name"),
            strategies=tuple(strategies),
            scenarios=tuple(scenarios),
            evaluator=data.get("evaluator") or EvaluatorSpec(),
            hardware=data.get("hardware") or (),
            execution=data.get("execution") or ExecutionSpec(),
            workload=data.get("workload", "cnn-cell"),
        )
        if validate:
            spec.validate()
        return spec

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str, validate: bool = True) -> "StudySpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise StudyError(f"study spec is not valid JSON: {err}") from None
        return cls.from_dict(data, validate=validate)

    @classmethod
    def from_file(cls, path: str | Path, validate: bool = True) -> "StudySpec":
        path = Path(path)
        try:
            text = path.read_text()
        except FileNotFoundError:
            raise StudyError(f"study spec file not found: {path}") from None
        try:
            return cls.from_json(text, validate=validate)
        except StudyError as err:
            raise StudyError(f"{path}: {err}") from None

    # -- validation --------------------------------------------------------
    def validate(self) -> "StudySpec":
        """Resolve every reference against the registries, fail loudly.

        Checks strategy names + params (:mod:`repro.search.registry`),
        scenario names / inline specs (:mod:`repro.core.scenarios`), the
        accuracy source + params (:mod:`repro.core.evaluator`), the
        workload and its source/platform compatibility
        (:mod:`repro.workloads`), and the hardware platform(s) + params
        (:mod:`repro.hw`).  Strategies and platforms are cheap to
        construct, so their param values are validated by building one:
        a value a constructor refuses fails here, not mid-run, and so
        does ``execution.surrogate`` with a strategy whose
        ``supports_two_tier`` is false.  Returns ``self`` so call sites
        can chain.
        """
        from repro.core.evaluator import AccuracySourceError, get_accuracy_source
        from repro.hw import HardwarePlatformError, build_platform
        from repro.search.registry import (
            StrategyError,
            build_strategy,
            validate_strategy_params,
        )
        from repro.workloads import WorkloadError, get_workload

        for strategy in self.strategies:
            try:
                validate_strategy_params(strategy.name, strategy.params)
                built = build_strategy(strategy.name, 0, **strategy.params)
            except StrategyError as err:
                raise StudyError(f"study {self.name!r}: {err}") from None
            if self.execution.surrogate and not built.supports_two_tier:
                raise StudyError(
                    f"study {self.name!r}: strategy {strategy.name!r} does not "
                    "support two-tier surrogate filtering (execution.surrogate)"
                )
        for entry in self.scenarios:
            try:
                if isinstance(entry, str):
                    get_scenario_builder(entry)
                else:
                    scenario_from_dict(entry)
            except ScenarioError as err:
                raise StudyError(f"study {self.name!r}: {err}") from None
        try:
            get_accuracy_source(self.evaluator.source)
        except AccuracySourceError as err:
            raise StudyError(f"study {self.name!r}: {err}") from None
        try:
            workload = get_workload(self.workload)
        except WorkloadError as err:
            raise StudyError(f"study {self.name!r}: {err}") from None
        # The reference workload keeps the open pre-workload contract
        # (any source, any platform — archived studies must keep
        # validating); named workloads pin their compatible recipes.
        if not workload.is_reference:
            if self.evaluator.source not in workload.accuracy_sources:
                raise StudyError(
                    f"study {self.name!r}: workload {workload.name!r} cannot "
                    f"score specs with accuracy source "
                    f"{self.evaluator.source!r}; compatible: "
                    f"{sorted(workload.accuracy_sources)}"
                )
            for hw in self.hardware:
                if not workload.supports_platform(hw.name):
                    raise StudyError(
                        f"study {self.name!r}: platform {hw.name!r} cannot "
                        f"schedule workload {workload.name!r} IRs; "
                        f"compatible: {sorted(workload.platforms)}"
                    )
        for hw in self.hardware:
            try:
                build_platform(hw.name, hw.params)
            except HardwarePlatformError as err:
                raise StudyError(f"study {self.name!r}: {err}") from None
        return self

    # -- overrides ---------------------------------------------------------
    def with_overrides(self, assignments: dict[str, Any]) -> "StudySpec":
        """A new spec with dotted-path fields replaced.

        ``assignments`` maps dotted paths into the :meth:`to_dict`
        structure to new values — e.g. ``{"execution.batch_size": 16,
        "strategies.0.params.population_size": 25}``.  List segments
        are integer indices.  Unknown paths raise :class:`StudyError`
        (overriding a field that does not exist would silently change
        nothing).
        """
        # Not to_dict: a field it omits at its default (ledger byte
        # compatibility) must still be addressable by path.
        data = self._fields_dict()
        for path, value in assignments.items():
            _assign(data, path, value)
        return StudySpec.from_dict(data)


#: Mapping fields that are open key/value bags: overrides may *add*
#: keys under them (``--set evaluator.params.seed=9``).  Every other
#: mapping is schema-fixed, so an unknown leaf is a typo, not a new
#: field.
_OPEN_MAPPINGS = ("params", "constraints", "bounds", "backend_params")


def _assign(data: Any, path: str, value: Any) -> None:
    parts = path.split(".")
    target = data
    parent_key = None
    for i, part in enumerate(parts[:-1]):
        target = _descend(target, part, ".".join(parts[: i + 1]))
        parent_key = part
    leaf = parts[-1]
    if isinstance(target, list):
        index = _list_index(target, leaf, path)
        target[index] = value
    elif isinstance(target, dict):
        if leaf not in target and parent_key not in _OPEN_MAPPINGS:
            raise StudyError(
                f"override path {path!r}: no field {leaf!r} "
                f"(existing: {sorted(target)})"
            )
        target[leaf] = value
    else:
        raise StudyError(
            f"override path {path!r}: {'.'.join(parts[:-1])!r} is a "
            f"{type(target).__name__}, not a mapping or list"
        )


def _descend(target: Any, part: str, sofar: str) -> Any:
    if isinstance(target, list):
        return target[_list_index(target, part, sofar)]
    if isinstance(target, dict):
        if part not in target:
            raise StudyError(
                f"override path {sofar!r}: no field {part!r} "
                f"(existing: {sorted(target)})"
            )
        return target[part]
    raise StudyError(
        f"override path {sofar!r}: cannot descend into a {type(target).__name__}"
    )


def _list_index(target: list, part: str, path: str) -> int:
    try:
        index = int(part)
    except ValueError:
        raise StudyError(
            f"override path {path!r}: {part!r} must be a list index "
            f"(0..{len(target) - 1})"
        ) from None
    if not 0 <= index < len(target):
        raise StudyError(
            f"override path {path!r}: index {index} out of range "
            f"(list has {len(target)} item(s))"
        )
    return index


def parse_assignments(pairs: list[str]) -> dict[str, Any]:
    """Parse CLI ``--set path=value`` pairs into a mapping.

    The one parser of ``repro study``'s spec overrides and ``repro hw
    show``'s platform params (a flat path).  Values parse as JSON when
    possible (``16``, ``true``, ``null``, ``[1,2]``) and fall back to
    plain strings (``process``).
    """
    out: dict[str, Any] = {}
    for pair in pairs:
        path, sep, raw = pair.partition("=")
        if not sep or not path:
            raise StudyError(
                f"--set expects path=value, got {pair!r} (e.g. --set "
                "execution.batch_size=16 on a study, --set "
                "max_pixel_par=16 on a platform)"
            )
        try:
            out[path] = json.loads(raw)
        except json.JSONDecodeError:
            out[path] = raw
    return out


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------

@dataclass
class Study:
    """A spec materialized against the registries, ready to run."""

    spec: StudySpec
    jobs: list  # list[repro.search.runner.RepeatJob]
    job_meta: dict[str, tuple[str, str]]  # label -> (outcome key, strategy)
    scenario_configs: dict[str, RewardConfig]
    pareto_top100: dict[str, list[dict]]
    scale: object  # repro.experiments.common.Scale
    num_steps: int
    num_repeats: int
    namespace: str = ""  # eval-cache namespace (single-platform studies)
    platforms: dict = field(default_factory=dict)  # hw label -> platform
    namespaces: dict = field(default_factory=dict)  # hw label -> namespace


def _resolve_scenarios(spec: StudySpec, bounds) -> dict[str, RewardConfig]:
    """Scenario key -> built RewardConfig (bounds filled from the space)."""
    configs: dict[str, RewardConfig] = {}
    for entry in spec.scenarios:
        try:
            if isinstance(entry, str):
                configs[entry] = get_scenario_builder(entry)(bounds)
            else:
                config = scenario_from_dict(entry, bounds)
                configs[config.name] = config
        except ScenarioError as err:
            raise StudyError(f"study {spec.name!r}: {err}") from None
    return configs


def build_study(spec: StudySpec, bundle=None, scale=None, store=None) -> Study:
    """Materialize ``spec`` into runnable :class:`RepeatJob` bags.

    ``bundle`` supplies the enumerated joint space for table-backed
    sources (loaded on demand for the ``database`` source);  ``scale``
    fills ``num_steps`` / ``num_repeats`` left as ``None`` in the spec
    (default: :meth:`repro.experiments.common.Scale.from_env`).
    ``store`` (an :class:`repro.parallel.EvalCache`) is handed to the
    accuracy-source builder — a training source persists per-cell
    outcomes through it, so warm re-runs pay no repeat training.

    Cross-platform sweeps (more than one ``hardware`` entry) expand
    the grid once per platform.  Each platform searches over its own
    ``config_space()``, evaluates through its own models, and caches
    under its own namespace; outcome keys gain a ``<platform>:``
    prefix so per-platform results never collide.
    """
    from repro.core.evaluator import (
        accuracy_source_namespace,
        build_evaluator,
        get_accuracy_source,
        hardware_namespace,
        bundle_matches,
    )
    from repro.core.pareto import reward_ranked_points
    from repro.core.search_space import JointSearchSpace
    from repro.experiments.common import Scale
    from repro.hw import HardwarePlatformError, build_platform
    from repro.hw.surrogate import SurrogatePlatform, surrogate_model_for
    from repro.search.registry import build_strategy
    from repro.search.runner import RepeatJob
    from repro.search.two_tier import TwoTierFilter
    from repro.workloads import get_workload

    spec.validate()
    workload = get_workload(spec.workload)
    source = get_accuracy_source(spec.evaluator.source)
    if source.requires_bundle and bundle is None:
        from repro.experiments.common import load_bundle

        bundle = load_bundle()
    scale = scale or Scale.from_env()
    num_steps = spec.execution.num_steps or scale.search_steps
    num_repeats = spec.execution.num_repeats or scale.num_repeats

    bounds = bundle.bounds if bundle is not None else None
    scenario_configs = _resolve_scenarios(spec, bounds)
    source_namespace = accuracy_source_namespace(
        spec.evaluator.source, spec.evaluator.params, bundle=bundle
    )
    try:
        platforms = {
            hw.effective_label: build_platform(hw.name, hw.params)
            for hw in spec.hardware
        }
        # Two-tier mode: each platform gets a fitted surrogate twin
        # that ranks inflated proposal batches; only the top
        # exact_fraction slice reaches the exact evaluator (and hence
        # the archive, the eval cache, and the ledger).
        surrogate_twins = (
            {
                label: SurrogatePlatform(platform, surrogate_model_for(platform))
                for label, platform in platforms.items()
            }
            if spec.execution.surrogate
            else {}
        )
    except HardwarePlatformError as err:
        raise StudyError(f"study {spec.name!r}: {err}") from None
    multi_platform = len(platforms) > 1
    namespaces = {
        label: hardware_namespace(source_namespace, platform)
        for label, platform in platforms.items()
    }
    pareto_top100: dict[str, list[dict]] = {}
    jobs: list[RepeatJob] = []
    job_meta: dict[str, tuple[str, str]] = {}
    for hw_label, platform in platforms.items():
        # The workload supplies the model half of the joint space (the
        # reference recipe reproduces the historic behaviour exactly:
        # the bundle's encoding when one is loaded, the full cell
        # space otherwise).
        search_space = JointSearchSpace(
            cell_encoding=workload.encoding(bundle),
            accelerator_space=platform.config_space(),
        )
        for scenario_key, scenario in scenario_configs.items():
            outcome_key = (
                f"{hw_label}:{scenario_key}" if multi_platform else scenario_key
            )
            # One evaluator per (platform, scenario): its metric caches
            # are shared by every strategy's repeats through per-job
            # with_reward clones, exactly like the historic closure path.
            evaluator = build_evaluator(
                spec.evaluator.source,
                scenario,
                spec.evaluator.params,
                bundle=bundle,
                store=store,
                platform=platform,
            )
            if bundle is not None and bundle_matches(
                bundle, platform, evaluator.skeleton
            ):
                # The bundle's metric arrays are only a valid Pareto
                # reference for the platform and skeleton that
                # enumerated them.
                pareto_top100[outcome_key] = reward_ranked_points(
                    bundle.front, scenario, 100
                )
            # The workload's lowering feeds every latency query (the
            # reference workload's is compile_cell_ops — the
            # evaluator's own default, so nothing moves for cnn-cell).
            evaluator.compile_fn = workload.compile
            for strategy in spec.strategies:
                label = f"{outcome_key}/{strategy.effective_label}"
                job_meta[label] = (outcome_key, strategy.effective_label)
                jobs.append(
                    RepeatJob(
                        label=label,
                        strategy_factory=(
                            lambda seed, _s=strategy, _sp=search_space: (
                                build_strategy(_s.name, seed, _sp, **_s.params)
                            )
                        ),
                        evaluator_factory=(
                            lambda _ev=evaluator, _sc=scenario: _ev.with_reward(_sc)
                        ),
                        cache_scenario=namespaces[hw_label],
                        two_tier_factory=(
                            (
                                lambda exact, _tw=surrogate_twins[hw_label],
                                _fr=spec.execution.exact_fraction: TwoTierFilter(
                                    exact.with_platform(_tw), _fr
                                )
                            )
                            if hw_label in surrogate_twins
                            else None
                        ),
                    )
                )
    return Study(
        spec=spec,
        jobs=jobs,
        job_meta=job_meta,
        scenario_configs=scenario_configs,
        pareto_top100=pareto_top100,
        scale=scale,
        num_steps=num_steps,
        num_repeats=num_repeats,
        namespace=next(iter(namespaces.values())) if not multi_platform else "",
        platforms=platforms,
        namespaces=namespaces,
    )


def run_study(
    spec: StudySpec,
    bundle=None,
    scale=None,
    eval_cache=None,
    ledger=None,
):
    """Run the whole spec-defined grid; returns a ``SearchStudyResult``.

    The ledger (``spec.execution.ledger`` path, or a live
    :class:`repro.parallel.RunLedger` passed in) automatically pins
    ``spec.to_dict()`` alongside the grid configuration — **plus** the
    fully *resolved* scenario definitions and the accuracy source's
    cache namespace, so a resume is refused not only when the spec
    text changes but also when a registry name quietly resolves to a
    different definition or the run targets a different space.
    ``eval_cache`` likewise falls back to the ``spec.execution.cache``
    path; it both memoizes pairwise evaluations (via the grid) and
    persists per-cell training outcomes for trainer-backed sources.
    """
    from repro.core.scenarios import scenario_to_dict
    from repro.experiments.search_study import SearchStudyResult
    from repro.parallel.cache import EvalCache
    from repro.parallel.pool import BackendError, build_backend
    from repro.search.runner import run_grid

    execution = spec.execution
    if eval_cache is None and execution.cache is not None:
        eval_cache = execution.cache
    if eval_cache is not None and not isinstance(eval_cache, EvalCache):
        eval_cache = EvalCache(eval_cache)
    if ledger is None and execution.ledger is not None:
        ledger = execution.ledger
    try:
        backend = build_backend(execution.backend, execution.backend_params)
    except BackendError as err:
        raise StudyError(f"study {spec.name!r}: {err}") from None
    study = build_study(spec, bundle=bundle, scale=scale, store=eval_cache)
    grid = run_grid(
        study.jobs,
        num_steps=study.num_steps,
        num_repeats=study.num_repeats,
        master_seed=execution.master_seed,
        backend=backend,
        workers=execution.workers,
        eval_cache=eval_cache,
        batch_size=execution.batch_size,
        ledger=ledger,
        checkpoint_every=execution.checkpoint_every,
        ledger_context={
            "study_spec": spec.to_dict(),
            # Single-platform studies pin the one namespace string
            # (byte-compatible with pre-platform ledgers under the
            # reference platform); sweeps pin the per-platform mapping.
            "space": study.namespace or study.namespaces,
            "scenarios": {
                key: scenario_to_dict(config)
                for key, config in study.scenario_configs.items()
            },
        },
    )
    outcomes: dict[str, dict] = {}
    for label, (outcome_key, strategy_label) in study.job_meta.items():
        outcomes.setdefault(outcome_key, {})[strategy_label] = grid[label]
    return SearchStudyResult(
        outcomes=outcomes,
        pareto_top100=study.pareto_top100,
        scale=study.scale,
        extras={"spec": spec},
    )


def replace_execution(spec: StudySpec, **changes) -> StudySpec:
    """A new spec with ``execution`` fields replaced (None = keep)."""
    kept = {k: v for k, v in changes.items() if v is not None}
    if not kept:
        return spec
    return replace(spec, execution=replace(spec.execution, **kept))


# ---------------------------------------------------------------------------
# Serving plumbing: study ids and JSON-ready outcome summaries
# ---------------------------------------------------------------------------

def new_study_id() -> str:
    """A short unique id for a submitted study (``st-`` + 12 hex chars).

    Ids key queue rows, per-study ledger files, and URLs
    (``/studies/<id>``), so they must be filesystem- and path-safe.
    """
    import uuid

    return "st-" + uuid.uuid4().hex[:12]


def outcome_summary(result) -> dict:
    """JSON-ready summary of a study result's outcomes.

    The one shape shared by every reporting surface — ``repro study
    run``'s markdown, the server's ``/studies/<id>`` result payload,
    and ``repro watch`` — so a served study and a local run of the
    same spec are comparable field for field.  ``best_rewards`` keeps
    the per-repeat best rewards at full float precision (JSON
    round-trips IEEE-754 doubles exactly), which is what the
    kill-and-restart durability test compares bit for bit.  NaN means
    (no feasible point in any repeat) become ``null`` — strict JSON
    has no NaN literal.
    """
    summary: dict[str, dict] = {}
    for outcome_key, by_strategy in result.outcomes.items():
        summary[outcome_key] = {}
        for strategy, outcome in by_strategy.items():
            mean = outcome.mean_best_reward()
            summary[outcome_key][strategy] = {
                "repeats": len(outcome.results),
                "best_rewards": [float(r) for r in outcome.top_rewards()],
                "mean_best_reward": None if mean != mean else float(mean),
                "hit_rate": float(outcome.hit_rate()),
            }
    return summary
