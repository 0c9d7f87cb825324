"""Outside-in instrumentation: wrappers around each layer's public calls.

Nothing in the library changes.  :func:`install_probe` adds the few
hooks every measured process needs (the first search start, the built
study, and the GPU-hours the training oracle charges);
:func:`install_spans` adds one span per call into each layer for the
traced run.  Both must run before ``run_study`` builds its evaluators,
because accuracy sources capture bound methods at build time.

Span names carry their layer: ``rl.sample``, ``decode``, ``hw.area``
and so on.  Spans nested under a ``setup.*`` span count as set-up, so
the ~36k ``spec_hash`` calls ``load_bundle`` makes while it enumerates
cells never reach the search-phase numbers.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass

from tracing import NO_PARENT, covered, descendants_of, self_times

__all__ = [
    "SetupDone",
    "Probe",
    "install_probe",
    "install_spans",
    "layer_metrics",
]

_PLATFORM_METHODS = {
    "area_mm2": "area",
    "batch_area_mm2": "area",
    "network_latency_s": "latency",
    "batch_network_latency_s": "latency",
    "config_valid": "valid",
    "batch_config_valid": "valid",
}


class SetupDone(Exception):
    """Raised at the first search start of a set-up-only process."""


@dataclass
class Probe:
    """What every measured process records, traced or not."""

    stop_at_search: bool = False
    search_start: float | None = None  # time.monotonic() at first search
    study: object = None  # the Study that run_study built
    gpu_hours: float = 0.0  # charged by the training oracle during search


def _patch(owner, attr: str, make) -> None:
    """Replace ``owner.attr`` (a function) with ``make(original)``."""
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    wrapper = make(original)
    functools.update_wrapper(wrapper, original)
    setattr(owner, attr, wrapper)


def install_probe(probe: Probe) -> None:
    """Mark the first search start, capture the study, sum GPU-hours."""
    from repro.core import study as study_module
    from repro.search.base import SearchStrategy
    from repro.search.threshold_schedule import ThresholdScheduleSearch
    from repro.training.surrogate_trainer import SurrogateCifar100Trainer

    def mark_search(original):
        def run(self, *args, **kwargs):
            if probe.search_start is None:
                probe.search_start = time.monotonic()
                if probe.stop_at_search:
                    raise SetupDone
            return original(self, *args, **kwargs)

        return run

    for owner in (SearchStrategy, ThresholdScheduleSearch):
        _patch(owner, "run", mark_search)

    def capture_study(original):
        def build_study(*args, **kwargs):
            probe.study = original(*args, **kwargs)
            return probe.study

        return build_study

    _patch(study_module, "build_study", capture_study)

    def charge_training(original):
        def train_and_score(self, spec):
            outcome = original(self, spec)
            if probe.search_start is not None:
                probe.gpu_hours += outcome.gpu_hours
            return outcome

        return train_and_score

    _patch(SurrogateCifar100Trainer, "train_and_score", charge_training)


def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _span_targets() -> list[tuple[str, object, str]]:
    """(span name, owner, attribute) for every wrapped public call."""
    from repro.accelerator.space import AcceleratorSpace
    from repro.core import pareto, study
    from repro.core.evaluator import CodesignEvaluator
    from repro.core.search_space import JointSearchSpace
    from repro.experiments import common
    from repro.hw import HardwarePlatform
    from repro.hw import surrogate
    from repro.hw.surrogate import SurrogatePlatform
    from repro.nasbench.database import CellDatabase
    from repro.nasbench.encoding import CellEncoding
    from repro.nasbench.model_spec import ModelSpec
    from repro.nasbench.surrogate import Cifar10Surrogate
    from repro.parallel.cache import EvalCache
    from repro.parallel.ledger import LedgerCheckpoint, RunLedger
    from repro.parallel.pool import ExecutionBackend
    from repro.rl.reinforce import ReinforceTrainer
    from repro.search.base import SearchStrategy
    from repro.search.registry import iter_registered
    from repro.search.threshold_schedule import ThresholdScheduleSearch
    from repro.search.two_tier import TwoTierFilter
    from repro.training.cache import CachedTrainer
    from repro.training.surrogate_trainer import SurrogateCifar100Trainer
    from repro.workloads import transformer

    targets = [
        ("setup.bundle", common, "load_bundle"),
        ("setup.pareto", pareto, "product_space_pareto"),
        ("setup.build_study", study, "build_study"),
        ("setup.surrogate", surrogate, "surrogate_model_for"),
        ("rl.sample", ReinforceTrainer, "sample_batch"),
        ("rl.update", ReinforceTrainer, "update_batch"),
        ("decode", CellEncoding, "decode"),
        ("decode", AcceleratorSpace, "decode"),
        ("decode", transformer.TransformerEncoding, "decode"),
        ("decode", JointSearchSpace, "decode"),
        ("spec_hash", ModelSpec, "spec_hash"),
        ("spec_hash", transformer.TransformerSpec, "spec_hash"),
        ("search.driver", SearchStrategy, "run"),
        ("search.driver", ThresholdScheduleSearch, "run"),
        ("screen.select", TwoTierFilter, "select"),
        ("eval.batch", CodesignEvaluator, "evaluate_batch"),
        ("eval.batch", CodesignEvaluator, "evaluate"),
        ("accuracy", CellDatabase, "get"),
        ("accuracy", Cifar10Surrogate, "validation_accuracy"),
        ("accuracy", transformer, "analytic_accuracy"),
        ("accuracy", CachedTrainer, "accuracy_fn"),
        ("accuracy.cache", CachedTrainer, "train_and_score"),
        ("accuracy.train", SurrogateCifar100Trainer, "train_and_score"),
        ("ledger.checkpoint", LedgerCheckpoint, "save"),
        ("ledger.record", RunLedger, "record_done"),
        ("ledger.record", RunLedger, "begin_run"),
        ("evalcache", EvalCache, "get"),
        ("evalcache", EvalCache, "put"),
        ("evalcache", EvalCache, "flush"),
    ]
    for _name, cls in iter_registered():
        for hook in ("ask", "tell"):
            if hook in cls.__dict__:
                targets.append((f"search.{hook}", cls, hook))
    for cls in _subclasses(HardwarePlatform):
        for method, kind in _PLATFORM_METHODS.items():
            if method in cls.__dict__:
                name = (
                    "screen.surrogate"
                    if issubclass(cls, SurrogatePlatform)
                    else f"hw.{kind}"
                )
                targets.append((name, cls, method))
    for cls in _subclasses(ExecutionBackend):
        if "run_tasks" in cls.__dict__:
            targets.append(("backend.dispatch", cls, "run_tasks"))
    return targets


def install_spans(tracer) -> None:
    """Wrap every layer's public calls in spans recorded by ``tracer``."""
    call = tracer.call

    def spanned(name):
        def make(original):
            def wrapper(*args, **kwargs):
                return call(name, original, args, kwargs)

            return wrapper

        return make

    for name, owner, attr in _span_targets():
        _patch(owner, attr, spanned(name))


def _family(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(
    tracer,
    probe: Probe,
    *,
    spawned: float,
    imported: float,
    finished: float,
    steps: int,
    feasible: int,
    ledger_bytes: int,
    evalcache_hit_rate: float,
) -> dict[str, float]:
    """Per-layer numbers of one traced study.

    Search-phase numbers are self time inside ``[first search start,
    finished]``, skipping every span nested under a ``setup.*`` span.
    Set-up numbers are inclusive durations before the first search.
    The ``study`` span wraps ``run_study``: its self time in the search
    window is the time no layer span covers.  ``evalcache_hit_rate``
    is the study's ``EvalCache.stats["hit_rate"]`` (0 without a cache).
    """
    spans = tracer.spans()
    start = probe.search_start
    window = (start, finished)
    setup_roots = {i for i, s in enumerate(spans) if s[0].startswith("setup.")}
    in_setup = descendants_of(spans, setup_roots)
    busy: Counter = Counter()
    calls: Counter = Counter()
    outer: Counter = Counter()
    for index, own in enumerate(self_times(spans, window)):
        if index in in_setup:
            continue
        name, begun, _end, parent = spans[index]
        busy[name] += own
        if begun >= start:
            calls[name] += 1
            if parent == NO_PARENT or _family(spans[parent][0]) != _family(name):
                outer[_family(name)] += 1

    def setup_span(name: str) -> list[tuple[float, float]]:
        return [
            (max(s[1], imported), min(s[2], start))
            for s in spans
            if s[0] == name and s[1] < start
        ]

    named = {
        "bundle": setup_span("setup.bundle"),
        "pareto": setup_span("setup.pareto"),
        "surrogate": setup_span("setup.surrogate"),
    }
    setup_total = start - spawned
    import_s = imported - spawned
    all_named = [iv for ivs in named.values() for iv in ivs]
    cache_calls = calls["accuracy.cache"]
    per_step = max(steps, 1)
    return {
        "setup.import_s": import_s,
        "setup.bundle_s": covered(named["bundle"]),
        "setup.pareto_s": covered(named["pareto"]),
        "setup.surrogate_s": covered(named["surrogate"]),
        "setup.other_s": setup_total - import_s - covered(all_named),
        "rl.sample_s": busy["rl.sample"],
        "rl.update_s": busy["rl.update"],
        "rl.calls": calls["rl.sample"] + calls["rl.update"],
        "decode.s": busy["decode"],
        "decode.calls": outer["decode"],
        "spec_hash.s": busy["spec_hash"],
        "spec_hash.per_step": outer["spec_hash"] / per_step,
        "search.ask_s": busy["search.ask"],
        "search.tell_s": busy["search.tell"],
        "search.driver_s": busy["search.driver"],
        "search.feasible_ratio": feasible / per_step,
        "screen.select_s": busy["screen.select"],
        "screen.surrogate_s": busy["screen.surrogate"],
        "eval.batch_s": busy["eval.batch"],
        "accuracy.calls": outer["accuracy"],
        "accuracy.per_step": outer["accuracy"] / per_step,
        "accuracy.s": busy["accuracy"] + busy["accuracy.cache"] + busy["accuracy.train"],
        "training.trained": calls["accuracy.train"],
        "training.hit_ratio": (
            1.0 - calls["accuracy.train"] / cache_calls if cache_calls else 0.0
        ),
        "training.gpu_hours": probe.gpu_hours,
        "hw.latency_s": busy["hw.latency"],
        "hw.area_s": busy["hw.area"],
        "hw.valid_s": busy["hw.valid"],
        "hw.calls": outer["hw"],
        "ledger.checkpoint_s": busy["ledger.checkpoint"],
        "ledger.checkpoint_calls": calls["ledger.checkpoint"],
        "ledger.record_s": busy["ledger.record"],
        "ledger.file_mb": ledger_bytes / 1e6,
        "evalcache.s": busy["evalcache"],
        "evalcache.hit_ratio": evalcache_hit_rate,
        "backend.dispatch_s": busy["backend.dispatch"],
        "trace.unattributed_s": busy["study"],
    }
