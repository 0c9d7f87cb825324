"""Table II: best discovered points vs ResNet/GoogLeNet baselines."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.archive import ArchiveEntry
from repro.experiments.fig7 import BaselinePoint, Fig7Result
from repro.utils.tables import format_markdown

__all__ = ["Table2Result", "run_table2", "PAPER_TABLE2"]

#: The paper's Table II (accuracy %, perf/area img/s/cm2, latency ms,
#: area mm2) for side-by-side comparison in EXPERIMENTS.md.
PAPER_TABLE2 = {
    "ResNet Cell": (72.9, 12.8, 42.0, 186.0),
    "Cod-1": (74.2, 18.1, 41.8, 132.0),
    "GoogLeNet Cell": (71.5, 39.3, 19.3, 132.0),
    "Cod-2": (72.0, 40.6, 18.5, 133.0),
}


def _row(label: str, accuracy: float, ppa: float, lat: float, area: float) -> tuple:
    return (label, round(accuracy, 2), round(ppa, 1), round(lat, 2), round(area, 1))


def _delta(ours: float, base: float, percent: bool) -> str:
    if percent:
        return f"{100.0 * (ours / base - 1.0):+.1f}%"
    return f"{ours - base:+.1f}"


@dataclass
class Table2Result:
    """Our Table II plus deltas against each baseline."""

    fig7: Fig7Result

    def rows(self) -> list[tuple]:
        out = []
        pairs = [
            ("resnet", "ResNet Cell", self.fig7.cod1, "Cod-1"),
            ("googlenet", "GoogLeNet Cell", self.fig7.cod2, "Cod-2"),
        ]
        for base_key, base_label, cod, cod_label in pairs:
            baseline: BaselinePoint = self.fig7.baselines[base_key]
            out.append(
                _row(
                    base_label,
                    baseline.accuracy,
                    baseline.perf_per_area,
                    baseline.latency_ms,
                    baseline.area_mm2,
                )
            )
            if cod is None:
                out.append((cod_label, "not found", "-", "-", "-"))
                continue
            m = cod.metrics
            out.append(
                (
                    cod_label,
                    f"{m.accuracy:.2f} ({_delta(m.accuracy, baseline.accuracy, False)})",
                    f"{m.perf_per_area:.1f} ({_delta(m.perf_per_area, baseline.perf_per_area, True)})",
                    f"{m.latency_ms:.2f} ({_delta(m.latency_ms, baseline.latency_ms, True)})",
                    f"{m.area_mm2:.1f} ({_delta(m.area_mm2, baseline.area_mm2, True)})",
                )
            )
        return out

    def improvements(self) -> dict[str, dict[str, float]]:
        """Cod-vs-baseline deltas (the paper's headline numbers)."""
        out: dict[str, dict[str, float]] = {}
        for base_key, cod, label in (
            ("resnet", self.fig7.cod1, "cod1"),
            ("googlenet", self.fig7.cod2, "cod2"),
        ):
            if cod is None:
                continue
            baseline = self.fig7.baselines[base_key]
            m = cod.metrics
            out[label] = {
                "accuracy_gain": m.accuracy - baseline.accuracy,
                "perf_per_area_gain_pct": 100.0
                * (m.perf_per_area / baseline.perf_per_area - 1.0),
                "latency_change_pct": 100.0 * (m.latency_ms / baseline.latency_ms - 1.0),
                "area_change_pct": 100.0 * (m.area_mm2 / baseline.area_mm2 - 1.0),
            }
        return out

    def to_markdown(self) -> str:
        header = ["CNN", "Accuracy [%]", "Perf/Area [img/s/cm2]", "Latency [ms]", "Area [mm2]"]
        ours = format_markdown(header, self.rows())
        paper = format_markdown(
            header, [_row(k, *v) for k, v in PAPER_TABLE2.items()]
        )
        return f"Ours:\n{ours}\n\nPaper Table II:\n{paper}"


def run_table2(fig7: Fig7Result) -> Table2Result:
    """Build Table II from a Fig. 7 result (:func:`repro.experiments.fig7.run_fig7`)."""
    return Table2Result(fig7=fig7)
