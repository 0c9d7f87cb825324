"""Fig. 7: CIFAR-100 codesign with a rising perf/area threshold.

The Section IV flow: no precomputed accuracies — every sampled cell is
"trained" by the (surrogate) trainer — with the combined strategy and a
perf/area constraint that rises over (2, 8, 16, 30, 40) img/s/cm2.
Baselines are the ResNet and GoogLeNet cells paired with their *own*
best accelerator (max perf/area over all 8640 configs).  The best
discovered points that dominate each baseline on both axes are the
run's Cod-1 / Cod-2.

The search is the ``fig7`` study preset sized by :func:`fig7_spec` and
run through :func:`repro.core.study.run_study`; :func:`run_fig7`
packages the result.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.accelerator.space import AcceleratorSpace
from repro.core.archive import ArchiveEntry
from repro.core.study import StudySpec, replace_execution
from repro.experiments.common import Scale
from repro.experiments.presets import get_preset
from repro.experiments.search_study import SearchStudyResult
from repro.hw import HardwarePlatform, build_platform, default_platform
from repro.nasbench.compile import compile_cell_ops
from repro.nasbench.known_cells import googlenet_cell, resnet_cell
from repro.nasbench.model_spec import ModelSpec
from repro.nasbench.skeleton import CIFAR100_SKELETON
from repro.nasbench.surrogate import extract_features
from repro.search.threshold_schedule import ThresholdRung, default_rungs
from repro.training.surrogate_trainer import SurrogateCifar100Trainer
from repro.utils.tables import format_markdown

__all__ = [
    "BaselinePoint",
    "Fig7Result",
    "best_accelerator_for",
    "fig7_spec",
    "run_fig7",
    "scaled_rungs",
]


@dataclass(frozen=True)
class BaselinePoint:
    """A reference cell on its most perf/area-optimal accelerator."""

    name: str
    spec: ModelSpec
    config_index: int
    accuracy: float
    latency_ms: float
    area_mm2: float

    @property
    def perf_per_area(self) -> float:
        return (1000.0 / self.latency_ms) / (self.area_mm2 / 100.0)


def best_accelerator_for(
    spec: ModelSpec,
    accuracy: float,
    name: str,
    space: AcceleratorSpace | None = None,
    platform: HardwarePlatform | None = None,
) -> BaselinePoint:
    """Sweep the platform's accelerators; return the max-perf/area pair."""
    platform = platform or default_platform()
    space = space or platform.config_space()
    cols = space.columns()
    areas = platform.batch_area_mm2(cols)
    ir = compile_cell_ops(spec, CIFAR100_SKELETON)
    latency_ms = platform.batch_network_latency_s(ir, cols) * 1e3
    ppa = (1000.0 / latency_ms) / (areas / 100.0)
    best = int(np.argmax(ppa))
    return BaselinePoint(
        name=name,
        spec=spec,
        config_index=best,
        accuracy=accuracy,
        latency_ms=float(latency_ms[best]),
        area_mm2=float(areas[best]),
    )


@dataclass
class Fig7Result:
    """Search result + baselines + discovered Cod points."""

    top10_per_threshold: dict[float, list[ArchiveEntry]]
    baselines: dict[str, BaselinePoint]
    cod1: ArchiveEntry | None
    cod2: ArchiveEntry | None
    gpu_hours: float
    unique_cells_trained: int
    total_steps: int
    extras: dict = field(default_factory=dict)

    def scatter_rows(self) -> list[tuple]:
        """Fig. 7's scatter: top-10 points per threshold value."""
        rows = []
        for threshold, entries in self.top10_per_threshold.items():
            for entry in entries:
                m = entry.metrics
                rows.append(
                    (
                        threshold,
                        round(m.perf_per_area, 1),
                        round(m.accuracy, 2),
                        round(m.latency_ms, 2),
                        round(m.area_mm2, 1),
                    )
                )
        return rows

    def to_markdown(self) -> str:
        lines = ["### Fig. 7 — CIFAR-100 codesign", ""]
        lines.append(
            format_markdown(
                ["threshold", "perf/area", "accuracy_%", "latency_ms", "area_mm2"],
                self.scatter_rows(),
            )
        )
        lines.append("")
        rows = []
        for baseline in self.baselines.values():
            rows.append(
                (
                    f"{baseline.name} cell",
                    round(baseline.accuracy, 2),
                    round(baseline.perf_per_area, 1),
                    round(baseline.latency_ms, 2),
                    round(baseline.area_mm2, 1),
                )
            )
        for label, entry in (("Cod-1", self.cod1), ("Cod-2", self.cod2)):
            if entry is not None:
                m = entry.metrics
                rows.append(
                    (
                        label,
                        round(m.accuracy, 2),
                        round(m.perf_per_area, 1),
                        round(m.latency_ms, 2),
                        round(m.area_mm2, 1),
                    )
                )
        lines.append(
            format_markdown(
                ["point", "accuracy_%", "perf/area", "latency_ms", "area_mm2"], rows
            )
        )
        lines.append("")
        lines.append(
            f"Search cost: {self.total_steps} steps, "
            f"{self.unique_cells_trained} cells trained, "
            f"{self.gpu_hours:.0f} simulated GPU-hours."
        )
        return "\n".join(lines)


def _dominating_entry(
    entries: list[ArchiveEntry], baseline: BaselinePoint
) -> ArchiveEntry | None:
    """Highest-accuracy entry beating ``baseline`` on both axes."""
    winners = [
        e
        for e in entries
        if e.metrics is not None
        and e.metrics.accuracy > baseline.accuracy
        and e.metrics.perf_per_area > baseline.perf_per_area
    ]
    if not winners:
        return None
    return max(winners, key=lambda e: e.metrics.accuracy)


def scaled_rungs(scale: Scale) -> list[ThresholdRung]:
    """The paper's threshold schedule with its rung budgets scaled.

    Valid-point targets and step caps shrink by
    ``scale.fig7_target_scale``, floored at 10 targets and 40 steps a
    rung so every rung stays searchable at smoke scale.
    """
    return [
        ThresholdRung(
            rung.threshold,
            max(10, int(rung.target_valid_points * scale.fig7_target_scale)),
            max(40, int(rung.max_steps * scale.fig7_target_scale)),
        )
        for rung in default_rungs()
    ]


def fig7_spec(
    scale: Scale,
    seed: int = 0,
    rungs: list[ThresholdRung] | None = None,
    hardware=None,
) -> StudySpec:
    """The ``fig7`` preset sized for one Fig. 7 search.

    ``rungs`` (default: :func:`scaled_rungs` of ``scale``) become the
    strategy's rung ladder, and their summed ``max_steps`` the step
    budget, which the schedule never exceeds.  The search runs once,
    from master seed ``seed``.  ``hardware`` is anything
    :class:`~repro.core.study.StudySpec` accepts as its platform, e.g.
    a registered name (default: the reference ``dac2020``).
    """
    rungs = rungs or scaled_rungs(scale)
    preset = get_preset("fig7")
    (strategy,) = preset.strategies
    params = {**strategy.params, "rungs": [asdict(rung) for rung in rungs]}
    spec = replace(
        preset,
        strategies=(replace(strategy, params=params),),
        hardware=hardware or (),
    )
    return replace_execution(
        spec,
        num_steps=sum(rung.max_steps for rung in rungs),
        num_repeats=1,
        master_seed=seed,
    )


def run_fig7(study: SearchStudyResult) -> Fig7Result:
    """Package a :func:`fig7_spec` study as Fig. 7.

    The baselines pair the ResNet and GoogLeNet cells, scored by the
    spec's trainer, with their best accelerator on the spec's platform;
    Cod-1 / Cod-2 come from the per-rung archives.  The search cost is
    read off the archive: the cells trained are its distinct valid
    cells in first-seen order, and the GPU-hours are the trainer's cost
    of one run on each.  That is what a cold serial run charges, so the
    cost does not depend on the eval cache or the backend.
    """
    spec = study.extras["spec"]
    (by_strategy,) = study.outcomes.values()
    (outcome,) = by_strategy.values()
    result = outcome.results[0]
    hardware = spec.hardware[0]
    platform = build_platform(hardware.name, hardware.params)
    # The trainer the accuracy source built; 'skeleton' shapes latency only.
    trainer = SurrogateCifar100Trainer(
        **{k: v for k, v in spec.evaluator.params.items() if k != "skeleton"}
    )

    baselines = {
        "resnet": best_accelerator_for(
            resnet_cell(), trainer.mean_accuracy(resnet_cell()), "ResNet",
            platform=platform,
        ),
        "googlenet": best_accelerator_for(
            googlenet_cell(), trainer.mean_accuracy(googlenet_cell()),
            "GoogLeNet", platform=platform,
        ),
    }
    feasible = [
        e
        for archive in result.extras["per_rung"].values()
        for e in archive.feasible_entries()
    ]
    trained: dict[str, ModelSpec] = {}
    for entry in result.archive.entries:
        if entry.spec.valid:
            trained.setdefault(entry.spec.spec_hash(), entry.spec)
    return Fig7Result(
        top10_per_threshold=result.extras["top10"],
        baselines=baselines,
        cod1=_dominating_entry(feasible, baselines["resnet"]),
        cod2=_dominating_entry(feasible, baselines["googlenet"]),
        gpu_hours=sum(
            trainer.gpu_hours(extract_features(cell)) for cell in trained.values()
        ),
        unique_cells_trained=len(trained),
        total_steps=len(result.archive),
        extras={"search_result": result},
    )
