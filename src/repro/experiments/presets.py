"""Named study presets: each paper figure/table as a :class:`StudySpec`.

Every preset is a complete declarative experiment definition — run it
from the command line (``repro study run fig5``), dump it to JSON
(``repro study show fig5 > my_study.json``), or tweak single fields
without editing code (``repro study run fig5 --set
execution.batch_size=16``).  ``num_steps`` / ``num_repeats`` are left
``None`` so one preset serves every ``REPRO_SCALE``.

``examples/study_fig5.json`` ships the ``fig5`` preset serialized;
``tests/core/test_study.py`` pins the two together so the example can
never drift from the code.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.core.study import StudyError, StudySpec

__all__ = [
    "register_preset",
    "get_preset",
    "list_presets",
    "resolve_spec",
]

_PRESETS: dict[str, Callable[[], StudySpec]] = {}

#: The Fig. 5/6 strategy line-up and scenario set (paper Section III).
PAPER_STRATEGIES = ({"name": "combined"}, {"name": "phase"}, {"name": "separate"})
PAPER_SCENARIOS = ("unconstrained", "1-constraint", "2-constraints")

#: CIFAR-100 joint-space metric bounds as a declarative mapping
#: (mirrors :data:`repro.experiments.fig7.CIFAR100_BOUNDS`).
CIFAR100_BOUNDS_SPEC = {
    "area_mm2": [50.0, 210.0],
    "latency_ms": [3.0, 1400.0],
    "accuracy": [55.0, 76.5],
}


def register_preset(name: str, builder: Callable[[], StudySpec] | None = None):
    """Register a preset builder under ``name`` (usable as decorator)."""

    def _register(fn: Callable[[], StudySpec]) -> Callable[[], StudySpec]:
        if name in _PRESETS:
            raise StudyError(f"study preset {name!r} is already registered")
        _PRESETS[name] = fn
        return fn

    return _register if builder is None else _register(builder)


def list_presets() -> list[str]:
    """Shipped preset names, sorted."""
    return sorted(_PRESETS)


def get_preset(name: str) -> StudySpec:
    """A fresh, validated :class:`StudySpec` for a preset name."""
    if name not in _PRESETS:
        raise StudyError(
            f"unknown study preset {name!r}; shipped presets: "
            f"{', '.join(list_presets())}"
        )
    return _PRESETS[name]().validate()


def resolve_spec(ref: str | Path) -> StudySpec:
    """A spec from a preset name or a JSON spec file path."""
    path = Path(ref)
    if path.suffix == ".json" or path.exists():
        return StudySpec.from_file(path)
    return get_preset(str(ref))


def _paper_study(name: str) -> StudySpec:
    return StudySpec(
        name=name,
        strategies=PAPER_STRATEGIES,
        scenarios=PAPER_SCENARIOS,
        evaluator={"source": "database"},
    )


register_preset("search-study", lambda: _paper_study("search-study"))
register_preset("fig5", lambda: _paper_study("fig5"))
register_preset("fig6", lambda: _paper_study("fig6"))


@register_preset("ablation-punishment")
def _ablation_punishment() -> StudySpec:
    """A1: the paper's distance-scaled punishment vs a near-zero one."""
    return StudySpec(
        name="ablation-punishment",
        strategies=({"name": "combined"},),
        scenarios=(
            "1-constraint",
            {
                "name": "1-constraint-weak-punish",
                "weights": [0.1, 0.0, 0.9],
                "constraints": {"max_latency_ms": 100.0},
                "punishment_scale": 0.001,
            },
        ),
        evaluator={"source": "database"},
        execution={"master_seed": 1},
    )


@register_preset("ablation-random")
def _ablation_random() -> StudySpec:
    """A2: the REINFORCE controller vs uniform random proposals."""
    return StudySpec(
        name="ablation-random",
        strategies=({"name": "combined"}, {"name": "random"}),
        scenarios=("unconstrained",),
        evaluator={"source": "database"},
        execution={"master_seed": 2},
    )


def _cifar100_study(name: str) -> StudySpec:
    """The Section IV threshold-schedule search as a study spec.

    One threshold-schedule strategy over the CIFAR-100 trainer source;
    the rising (2, 8, 16, 30, 40) img/s/cm2 schedule is the strategy's
    default rung ladder, capped by ``num_steps`` (i.e. the scale).
    This is the search behind Fig. 7 and Tables II/III — the fig7
    packaging (baselines, Cod points, GPU-hour ledger) lives in
    :func:`repro.experiments.fig7.run_fig7`.
    """
    return StudySpec(
        name=name,
        strategies=(
            {"name": "threshold-schedule", "params": {"bounds": CIFAR100_BOUNDS_SPEC}},
        ),
        scenarios=(
            {
                "name": "cifar100-codesign",
                "weights": [0.0, 0.0, 1.0],
                "constraints": {"min_perf_per_area": 2.0},
                "bounds": CIFAR100_BOUNDS_SPEC,
            },
        ),
        evaluator={"source": "cifar100-trainer"},
        execution={"num_repeats": 1},
    )


register_preset("fig7", lambda: _cifar100_study("fig7"))
register_preset("table2", lambda: _cifar100_study("table2"))
register_preset("table3", lambda: _cifar100_study("table3"))


@register_preset("hw-sweep")
def _hw_sweep() -> StudySpec:
    """Cross-platform sweep: one search grid per registered platform.

    The same strategies and scenario run on the reference ``dac2020``,
    a faster-clocked / budget-capped ``dac2020-scaled`` variant, and
    the ``embedded-lite`` profile.  Outcomes key as
    ``<platform>:<scenario>`` and every platform's evaluations live in
    their own eval-cache/ledger namespace, so results from differently
    modelled hardware never mix.
    """
    return StudySpec(
        name="hw-sweep",
        strategies=(
            {"name": "random"},
            {"name": "combined"},
        ),
        scenarios=("unconstrained",),
        evaluator={"source": "surrogate"},
        hardware=(
            {"name": "dac2020"},
            {
                "name": "dac2020-scaled",
                "params": {"clock_mhz": 300.0, "max_pixel_par": 32},
                "label": "dac2020-fast",
            },
            {"name": "embedded-lite"},
        ),
    )


@register_preset("bert-u50")
def _bert_u50() -> StudySpec:
    """Transformer x charm-u50 codesign: surrogates past enumerability.

    The ``transformer`` workload's five-token encoder family searched
    jointly with the ``charm-u50`` tiled-GEMM accelerator — 393,216
    hardware configurations, well past the enumeration ceiling
    (``TENSORIZE_MAX_CONFIGS``), so ``execution.surrogate`` arms the
    two-tier mode by default: a sampled-fit surrogate twin ranks inflated
    proposal batches and only the top ``exact_fraction`` reaches the
    exact analytical models (and the archive).
    """
    return StudySpec(
        name="bert-u50",
        strategies=(
            {"name": "random"},
            {"name": "evolution", "params": {"population_size": 4, "tournament_size": 2}},
        ),
        scenarios=("unconstrained",),
        evaluator={"source": "transformer-analytic"},
        hardware=({"name": "charm-u50"},),
        workload="transformer",
        execution={"surrogate": True, "exact_fraction": 0.25},
    )


@register_preset("smoke")
def _smoke() -> StudySpec:
    """Five-step registry exerciser: the CI drift guard for the spec path.

    Surrogate-backed (no enumerated-space bundle to build), two cheap
    strategies, one scenario — seconds end to end, but it walks the
    whole declarative chain: registries, spec resolution, grid run.
    """
    return StudySpec(
        name="smoke",
        strategies=(
            {"name": "random"},
            {"name": "evolution", "params": {"population_size": 4, "tournament_size": 2}},
        ),
        scenarios=("unconstrained",),
        evaluator={"source": "surrogate"},
        execution={"num_steps": 5, "num_repeats": 1},
    )
