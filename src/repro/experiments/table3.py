"""Table III: accelerator parameters of the best discovered points."""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerator.config import AcceleratorConfig
from repro.experiments.fig7 import Fig7Result
from repro.utils.tables import format_markdown

__all__ = ["Table3Result", "run_table3", "PAPER_TABLE3"]

#: The paper's Table III.
PAPER_TABLE3 = {
    "filter_par, pixel_par": {"Cod-1": "(16, 64)", "Cod-2": "(16, 64)"},
    "buffer depths": {"Cod-1": "(4K, 2K, 4K)", "Cod-2": "(8K, 2K, 2K)"},
    "mem_interface_width": {"Cod-1": "256", "Cod-2": "512"},
    "pool_en": {"Cod-1": "false", "Cod-2": "false"},
    "ratio_conv_engines": {"Cod-1": "0.33", "Cod-2": "0.25"},
}


def _describe(config: AcceleratorConfig) -> dict[str, str]:
    def k(depth: int) -> str:
        return f"{depth // 1024}K"

    return {
        "filter_par, pixel_par": f"({config.filter_par}, {config.pixel_par})",
        "buffer depths": (
            f"({k(config.input_buffer_depth)}, {k(config.weight_buffer_depth)}, "
            f"{k(config.output_buffer_depth)})"
        ),
        "mem_interface_width": str(config.mem_interface_width),
        "pool_en": str(config.pool_enable).lower(),
        "ratio_conv_engines": f"{config.ratio_conv_engines:g}",
    }


@dataclass
class Table3Result:
    """HW parameters of our Cod-1/Cod-2 beside the paper's."""

    fig7: Fig7Result

    def rows(self) -> list[tuple]:
        cod1 = self.fig7.cod1.config if self.fig7.cod1 is not None else None
        cod2 = self.fig7.cod2.config if self.fig7.cod2 is not None else None
        described = {
            "Cod-1": _describe(cod1) if cod1 is not None else {},
            "Cod-2": _describe(cod2) if cod2 is not None else {},
        }
        rows = []
        for param, paper_values in PAPER_TABLE3.items():
            rows.append(
                (
                    param,
                    described["Cod-1"].get(param, "-"),
                    paper_values["Cod-1"],
                    described["Cod-2"].get(param, "-"),
                    paper_values["Cod-2"],
                )
            )
        return rows

    def to_markdown(self) -> str:
        return format_markdown(
            ["HW Parameter", "Cod-1 (ours)", "Cod-1 (paper)", "Cod-2 (ours)", "Cod-2 (paper)"],
            self.rows(),
        )


def run_table3(fig7: Fig7Result) -> Table3Result:
    """Build Table III from a Fig. 7 result (:func:`repro.experiments.fig7.run_fig7`)."""
    return Table3Result(fig7=fig7)
