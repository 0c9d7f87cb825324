"""Experiment harness: one module per paper table/figure, plus ablations."""

from repro.experiments.ablations import (
    AblationRow,
    ablation_markdown,
    run_all_ablations,
    run_punishment_ablation,
    run_random_ablation,
    run_schedule_ablation,
)
from repro.experiments.common import Scale, SpaceBundle, eval_cache_path, load_bundle
from repro.experiments.fig4 import PAPER_FIG4, Fig4Result, run_fig4
from repro.experiments.fig5 import Fig5Result, run_fig5
from repro.experiments.fig6 import Fig6Result, run_fig6
from repro.experiments.fig7 import (
    BaselinePoint,
    Fig7Result,
    best_accelerator_for,
    fig7_spec,
    run_fig7,
)
from repro.experiments.presets import get_preset, list_presets, resolve_spec
from repro.experiments.search_study import SearchStudyResult
from repro.experiments.table1 import PAPER_TABLE1, Table1Result, run_table1
from repro.experiments.table2 import PAPER_TABLE2, Table2Result, run_table2
from repro.experiments.table3 import PAPER_TABLE3, Table3Result, run_table3
from repro.experiments.validation import PAPER_VALIDATION, ValidationResult, run_validation

__all__ = [
    "AblationRow",
    "ablation_markdown",
    "run_all_ablations",
    "run_punishment_ablation",
    "run_random_ablation",
    "run_schedule_ablation",
    "Scale",
    "SpaceBundle",
    "eval_cache_path",
    "load_bundle",
    "PAPER_FIG4",
    "Fig4Result",
    "run_fig4",
    "Fig5Result",
    "run_fig5",
    "Fig6Result",
    "run_fig6",
    "BaselinePoint",
    "Fig7Result",
    "best_accelerator_for",
    "fig7_spec",
    "run_fig7",
    "get_preset",
    "list_presets",
    "resolve_spec",
    "SearchStudyResult",
    "PAPER_TABLE1",
    "Table1Result",
    "run_table1",
    "PAPER_TABLE2",
    "Table2Result",
    "run_table2",
    "PAPER_TABLE3",
    "Table3Result",
    "run_table3",
    "PAPER_VALIDATION",
    "ValidationResult",
    "run_validation",
]
