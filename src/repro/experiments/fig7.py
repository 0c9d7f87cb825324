"""Fig. 7: CIFAR-100 codesign with a rising perf/area threshold.

The Section IV flow: no precomputed accuracies — every sampled cell is
"trained" by the (surrogate) trainer — with the combined strategy and a
perf/area constraint that rises over (2, 8, 16, 30, 40) img/s/cm2.
Baselines are the ResNet and GoogLeNet cells paired with their *own*
best accelerator (max perf/area over all 8640 configs).  The best
discovered points that dominate each baseline on both axes are the
run's Cod-1 / Cod-2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accelerator.space import AcceleratorSpace
from repro.core.archive import ArchiveEntry
from repro.core.evaluator import build_evaluator
from repro.core.scenarios import CIFAR100_BOUNDS, cifar100_threshold
from repro.core.search_space import JointSearchSpace
from repro.experiments.common import Scale
from repro.hw import HardwarePlatform, default_platform
from repro.nasbench.compile import compile_cell_ops
from repro.nasbench.known_cells import googlenet_cell, resnet_cell
from repro.nasbench.model_spec import ModelSpec
from repro.nasbench.skeleton import CIFAR100_SKELETON
from repro.search.registry import build_strategy
from repro.search.threshold_schedule import ThresholdRung, default_rungs
from repro.utils.tables import format_markdown

__all__ = ["BaselinePoint", "Fig7Result", "run_fig7", "best_accelerator_for"]


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


def run_fig7(
    scale: Scale | None = None,
    seed: int = 0,
    rungs: list[ThresholdRung] | None = None,
    train_store=None,
    platform: HardwarePlatform | None = None,
) -> Fig7Result:
    """Run the CIFAR-100 threshold-schedule study.

    ``rungs`` defaults to :func:`scaled_rungs` of ``scale``.
    ``train_store`` (a :class:`repro.parallel.EvalCache`) persists
    per-cell training outcomes across runs; a warm re-run then reports
    near-zero *paid* GPU-hours for already-trained cells.  The store
    namespace (``trainer.cache_namespace()``) pins every
    outcome-affecting trainer parameter so differently configured
    surrogates never share rows.

    The search and its evaluator are built through the declarative
    registries only (the ``cifar100-trainer`` accuracy source and the
    ``threshold-schedule`` strategy), the same construction path the
    ``fig7`` / ``table2`` / ``table3`` study presets take — ``repro
    study run fig7`` runs this search spec-driven.  ``platform`` swaps
    the hardware backend for both the search and the baseline sweeps
    (default: the reference ``dac2020``).
    """
    scale = scale or Scale.from_env()
    platform = platform or default_platform()
    rungs = rungs or scaled_rungs(scale)
    evaluator = build_evaluator(
        "cifar100-trainer",
        cifar100_threshold(rungs[0].threshold, CIFAR100_BOUNDS),
        store=train_store,
        platform=platform,
    )
    trainer = evaluator.source_info["trainer"]
    search = build_strategy(
        "threshold-schedule",
        seed,
        JointSearchSpace(accelerator_space=platform.config_space()),
        rungs=rungs,
        bounds=CIFAR100_BOUNDS,
    )
    result = search.run(evaluator)

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
    return Fig7Result(
        top10_per_threshold=result.extras["top10"],
        baselines=baselines,
        cod1=_dominating_entry(feasible, baselines["resnet"]),
        cod2=_dominating_entry(feasible, baselines["googlenet"]),
        gpu_hours=trainer.total_gpu_hours,
        unique_cells_trained=evaluator.source_info["cached"].unique_cells_trained,
        total_steps=len(result.archive),
        extras={"search_result": result},
    )
