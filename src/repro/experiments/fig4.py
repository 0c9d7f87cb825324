"""Fig. 4: Pareto-optimal points of the codesign search space.

Enumerates the full joint space (exhaustive micro cells x all 8640
accelerators), extracts the exact 3D Pareto frontier, and reports the
statistics the paper highlights: the frontier is a vanishing fraction
of the space and is diverse in both the cell and the accelerator axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pareto import ProductParetoResult
from repro.experiments.common import SpaceBundle, load_bundle
from repro.utils.tables import format_markdown

__all__ = ["Fig4Result", "run_fig4", "PAPER_FIG4"]

#: Paper-reported frontier statistics (423,624 cells x 8640 configs).
PAPER_FIG4 = {
    "num_pairs": 3.7e9,
    "num_pareto": 3096,
    "pareto_fraction": 3096 / 3.7e9,
    "num_distinct_cells": 136,
    "num_distinct_configs": 338,
    "accuracy_range": (91.0, 94.5),
}


@dataclass
class Fig4Result:
    """Frontier + summary statistics."""

    front: ProductParetoResult
    num_pairs: int
    bundle: SpaceBundle

    @property
    def pareto_fraction(self) -> float:
        return self.front.num_points / self.num_pairs

    def summary(self) -> dict[str, float]:
        return {
            "num_pairs": float(self.num_pairs),
            "num_pareto": float(self.front.num_points),
            "pareto_fraction": self.pareto_fraction,
            "num_distinct_cells": float(self.front.num_distinct_cells()),
            "num_distinct_configs": float(self.front.num_distinct_configs()),
            "accuracy_min": float(self.front.accuracy.min()),
            "accuracy_max": float(self.front.accuracy.max()),
            "latency_ms_min": float(self.front.latency_ms.min()),
            "latency_ms_max": float(self.front.latency_ms.max()),
            "area_mm2_min": float(self.front.area_mm2.min()),
            "area_mm2_max": float(self.front.area_mm2.max()),
        }

    def scatter_rows(self, max_rows: int = 40) -> list[tuple]:
        """Representative frontier rows (the figure's scatter data)."""
        order = np.argsort(self.front.latency_ms)
        step = max(1, len(order) // max_rows)
        rows = []
        for idx in order[::step][:max_rows]:
            rows.append(
                (
                    round(float(self.front.latency_ms[idx]), 2),
                    round(float(self.front.accuracy[idx]), 2),
                    round(float(self.front.area_mm2[idx]), 1),
                )
            )
        return rows

    def to_markdown(self) -> str:
        lines = ["Fig. 4 frontier summary (ours vs paper):", ""]
        summary = self.summary()
        lines.append(
            format_markdown(
                ["statistic", "ours", "paper"],
                [
                    ("pairs enumerated", f"{summary['num_pairs']:.3g}", "3.7e9"),
                    ("Pareto points", int(summary["num_pareto"]), PAPER_FIG4["num_pareto"]),
                    (
                        "Pareto fraction",
                        f"{summary['pareto_fraction']:.2e}",
                        f"{PAPER_FIG4['pareto_fraction']:.2e}",
                    ),
                    ("distinct cells", int(summary["num_distinct_cells"]),
                     PAPER_FIG4["num_distinct_cells"]),
                    ("distinct accelerators", int(summary["num_distinct_configs"]),
                     PAPER_FIG4["num_distinct_configs"]),
                ],
            )
        )
        lines.append("")
        lines.append(
            format_markdown(
                ["latency_ms", "accuracy_%", "area_mm2"], self.scatter_rows()
            )
        )
        return "\n".join(lines)


def run_fig4(bundle: SpaceBundle | None = None) -> Fig4Result:
    """The enumerated joint space's Pareto frontier and its statistics."""
    bundle = bundle or load_bundle()
    return Fig4Result(front=bundle.front, num_pairs=bundle.num_pairs, bundle=bundle)
