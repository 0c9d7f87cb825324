"""Tests for the experiment harness (structure + fast invariants)."""

import numpy as np
import pytest

from repro.core.scenarios import unconstrained
from repro.core.study import replace_execution, run_study
from repro.experiments.ablations import (
    run_punishment_ablation,
    run_random_ablation,
    run_schedule_ablation,
)
from repro.experiments import common
from repro.experiments.common import Scale, load_bundle
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import best_accelerator_for, fig7_spec, run_fig7
from repro.experiments.presets import get_preset
from repro.experiments.table1 import PAPER_TABLE1, run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.validation import run_validation
from repro.nasbench.known_cells import resnet_cell
from repro.parallel import EvalCache
from repro.search.threshold_schedule import ThresholdRung
from repro.training.surrogate_trainer import SurrogateCifar100Trainer

TINY = Scale(name="tiny", search_steps=60, num_repeats=2, fig7_target_scale=0.05)


class TestScale:
    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert Scale.from_env().name == "smoke"

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ValueError):
            Scale.from_env()

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert Scale.from_env().name == "default"


class TestBundle:
    def test_memoized(self, micro4_bundle):
        assert load_bundle(max_vertices=4) is micro4_bundle

    def test_shapes_consistent(self, micro4_bundle):
        b = micro4_bundle
        assert b.latency_ms.shape == (len(b.database), b.space.size)
        assert b.accuracy.shape == (len(b.database),)
        assert b.area_mm2.shape == (b.space.size,)

    def test_bounds_cover_space(self, micro4_bundle):
        b = micro4_bundle
        assert b.bounds.latency_ms[0] <= b.latency_ms.min()
        assert b.bounds.latency_ms[1] >= b.latency_ms.max()

    def test_perf_per_area_shape(self, micro4_bundle):
        assert micro4_bundle.perf_per_area().shape == micro4_bundle.latency_ms.shape

    def test_truncated_cache_file_is_a_miss(self, monkeypatch, tmp_path):
        """A write cut short must not wedge every later load."""
        monkeypatch.setattr(common, "_BUNDLE_MEMO", {})
        fresh = load_bundle(max_vertices=3, cache_dir=tmp_path)
        (cache_file,) = tmp_path.iterdir()
        data = cache_file.read_bytes()
        cache_file.write_bytes(data[: len(data) // 2])

        monkeypatch.setattr(common, "_BUNDLE_MEMO", {})
        rebuilt = load_bundle(max_vertices=3, cache_dir=tmp_path)
        assert rebuilt is not fresh
        assert rebuilt.latency_ms.tobytes() == fresh.latency_ms.tobytes()
        # The rebuild rewrote the whole file, and left no temp sibling.
        assert list(tmp_path.iterdir()) == [cache_file]
        with np.load(cache_file) as cached:
            assert cached["latency_ms"].astype(np.float64).tobytes() == fresh.latency_ms.tobytes()


class TestTable1:
    def test_totals_match_paper(self):
        result = run_table1()
        assert result.total_relative == pytest.approx(
            PAPER_TABLE1["total_relative"], rel=0.002
        )
        assert result.total_mm2 == pytest.approx(PAPER_TABLE1["total_mm2"], rel=0.005)

    def test_markdown_has_all_rows(self):
        text = run_table1().to_markdown()
        for token in ("CLB", "BRAM", "DSP", "Total"):
            assert token in text


class TestFig4:
    def test_pareto_fraction_tiny(self, micro4_bundle):
        result = run_fig4(micro4_bundle)
        assert result.pareto_fraction < 1e-3  # paper: <0.0001%

    def test_summary_and_rows(self, micro4_bundle):
        result = run_fig4(micro4_bundle)
        summary = result.summary()
        assert summary["num_pareto"] > 10
        assert summary["num_distinct_cells"] > 1
        assert summary["num_distinct_configs"] > 1
        assert len(result.scatter_rows()) > 5
        assert "Pareto points" in result.to_markdown()


class TestSearchStudy:
    @pytest.fixture(scope="class")
    def study(self, micro4_bundle):
        spec = replace_execution(get_preset("search-study"), master_seed=1)
        return run_study(spec, bundle=micro4_bundle, scale=TINY)

    def test_grid_complete(self, study):
        assert set(study.outcomes) == {"unconstrained", "1-constraint", "2-constraints"}
        for by_strategy in study.outcomes.values():
            assert set(by_strategy) == {"combined", "phase", "separate"}

    def test_pareto_reference_sets(self, study):
        for scenario, rows in study.pareto_top100.items():
            assert len(rows) <= 100
            rewards = [r["reward"] for r in rows]
            assert rewards == sorted(rewards, reverse=True)

    def test_fig5_view(self, micro4_bundle, study):
        fig5 = run_fig5(study=study)
        hit = fig5.constraint_hit_rates()
        assert set(hit) == set(study.outcomes)
        text = fig5.to_markdown()
        assert "unconstrained" in text

    def test_fig6_view(self, study):
        fig6 = run_fig6(study=study)
        trace = fig6.trace("unconstrained", "combined")
        assert len(trace) == TINY.search_steps
        finals = fig6.final_rewards()
        assert "combined" in finals["unconstrained"]
        assert fig6.convergence_step("unconstrained", "combined") <= TINY.search_steps

    def test_top_pareto_respects_constraints(self, micro4_bundle):
        from repro.core.pareto import product_space_pareto, reward_ranked_points
        from repro.core.scenarios import two_constraints

        scenario = two_constraints(micro4_bundle.bounds)
        front = product_space_pareto(
            micro4_bundle.accuracy, micro4_bundle.area_mm2, micro4_bundle.latency_ms
        )
        rows = reward_ranked_points(front, scenario, 50)
        for row in rows:
            assert row["accuracy"] >= 92.0
            assert row["area_mm2"] <= 100.0


class TestFig7AndTables:
    RUNGS = [ThresholdRung(2.0, 15, 60), ThresholdRung(16.0, 15, 60)]

    @pytest.fixture(scope="class")
    def spec(self):
        return fig7_spec(TINY, seed=1, rungs=self.RUNGS)

    @pytest.fixture(scope="class")
    def fig7(self, spec):
        return run_fig7(run_study(spec, scale=TINY))

    def test_spec_sizes_one_search(self, spec):
        assert spec.execution.num_steps == 120
        assert spec.execution.num_repeats == 1
        assert spec.execution.master_seed == 1
        assert spec.strategies[0].params["rungs"][1] == {
            "threshold": 16.0, "target_valid_points": 15, "max_steps": 60,
        }

    def test_baselines_present(self, fig7):
        assert fig7.baselines["resnet"].accuracy == pytest.approx(72.9)
        assert fig7.baselines["googlenet"].accuracy == pytest.approx(71.5)

    def test_baseline_is_best_perf_area(self):
        trainer = SurrogateCifar100Trainer()
        point = best_accelerator_for(resnet_cell(), 72.9, "ResNet")
        assert point.perf_per_area > 10

    def test_scatter_rows(self, fig7):
        rows = fig7.scatter_rows()
        assert all(len(r) == 5 for r in rows)

    def test_gpu_ledger_positive(self, fig7):
        assert fig7.gpu_hours > 0
        assert fig7.unique_cells_trained > 0

    def test_gpu_hours_are_what_a_cold_serial_run_charges(
        self, spec, fig7, tmp_path, monkeypatch
    ):
        charged = []
        train_and_score = SurrogateCifar100Trainer.train_and_score

        def charging(self, cell):
            outcome = train_and_score(self, cell)
            charged.append(outcome.gpu_hours)
            return outcome

        monkeypatch.setattr(SurrogateCifar100Trainer, "train_and_score", charging)
        cache = EvalCache(tmp_path / "ec.sqlite")
        cold = run_fig7(run_study(spec, scale=TINY, eval_cache=cache))
        assert cold.gpu_hours == sum(charged)  # bit for bit
        assert cold.unique_cells_trained == len(charged)
        # A warm re-run trains nothing and reports the same search.
        del charged[:]
        warm = run_fig7(run_study(spec, scale=TINY, eval_cache=cache))
        assert charged == []
        assert warm == cold == fig7

    def test_process_backend_matches_serial(self, spec):
        # Two repeats, so the pool forks and the packaged first repeat
        # runs in a worker, away from the parent's trainer.
        spec = replace_execution(spec, num_repeats=2)
        serial = run_fig7(run_study(spec, scale=TINY))
        process = run_fig7(
            run_study(
                replace_execution(spec, backend="process", workers=2), scale=TINY
            )
        )
        assert process == serial
        assert process.to_markdown() == serial.to_markdown()

    def test_table2_structure(self, fig7):
        table = run_table2(fig7)
        rows = table.rows()
        assert rows[0][0] == "ResNet Cell"
        assert rows[2][0] == "GoogLeNet Cell"
        assert "Paper Table II" in table.to_markdown()

    def test_table3_structure(self, fig7):
        table = run_table3(fig7)
        rows = table.rows()
        assert len(rows) == 5
        assert rows[0][2] == "(16, 64)"  # paper reference column


class TestValidationExperiment:
    def test_summary_near_paper(self):
        result = run_validation()
        summary = result.summary()
        assert summary["area_mean_error"] < 0.06
        assert summary["latency_accuracy"] > 0.7
        assert "ours" in result.to_markdown()


class TestAblations:
    def test_punishment_rows(self, micro4_bundle):
        rows = run_punishment_ablation(micro4_bundle, TINY, master_seed=0)
        assert len(rows) == 2
        assert {r.variant for r in rows} == {"punishment (paper)", "weak punishment"}

    def test_random_rows(self, micro4_bundle):
        rows = run_random_ablation(micro4_bundle, TINY, master_seed=0)
        assert {r.variant for r in rows} == {"combined (RL)", "random"}
        for row in rows:
            assert np.isfinite(row.best_reward)

    def test_schedule_rows(self):
        rows = run_schedule_ablation(TINY, master_seed=0)
        assert [r.variant for r in rows] == ["schedule (paper)", "fixed final threshold"]
        for row in rows:
            assert np.isfinite(row.best_reward)
            assert 0.0 < row.feasible_rate <= 1.0


class TestStudyScenarioNames:
    def test_scenario_names_with_slash_survive_the_grid(self, micro4_bundle):
        """Labels are opaque: registry/JSON names may contain '/'."""
        spec = get_preset("search-study").with_overrides(
            {"scenarios": [{"name": "edge/lowpower", "weights": [0.1, 0.8, 0.1]}]}
        )
        study = run_study(spec, bundle=micro4_bundle, scale=Scale("tiny", 10, 1, 0.1))
        assert set(study.outcomes) == {"edge/lowpower"}
        assert {"combined", "phase", "separate"} == set(
            study.outcomes["edge/lowpower"]
        )
