"""Tests for the experiment harness (structure + fast invariants)."""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.core.pareto import product_space_pareto
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
from repro.nasbench import compile as nasbench_compile
from repro.nasbench import database as nasbench_database
from repro.nasbench.database import CellDatabase, enumerate_unique_cells
from repro.nasbench.known_cells import resnet_cell
from repro.parallel import EvalCache
from repro.search.threshold_schedule import ThresholdRung
from repro.training.surrogate_trainer import SurrogateCifar100Trainer

TINY = Scale(name="tiny", search_steps=60, num_repeats=2, fig7_target_scale=0.05)


def _load_space_goldens():
    path = Path(__file__).resolve().parents[1] / "data" / "generate_space_goldens.py"
    spec = importlib.util.spec_from_file_location("generate_space_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


space_goldens = _load_space_goldens()

#: What a cold bundle build derives; a warm load must call none of it.
DERIVATIONS = [
    (common, "enumerate_unique_cells"),
    (nasbench_database, "extract_features"),
    (nasbench_compile, "compile_network"),
    (common, "product_space_pareto"),
]


def _listing(directory: Path) -> dict[str, tuple[int, int]]:
    """File name -> (size, mtime in ns) of every file in ``directory``."""
    return {
        path.name: (path.stat().st_size, path.stat().st_mtime_ns)
        for path in directory.iterdir()
    }


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

    def test_memo_keys_on_the_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        monkeypatch.setattr(common, "_BUNDLE_MEMO", {})
        default = load_bundle(max_vertices=3)
        other_dir = tmp_path / "other"
        other_dir.mkdir()
        load_bundle(max_vertices=3, cache_dir=other_dir)
        assert [p.suffix for p in other_dir.iterdir()] == [".npz"]
        assert load_bundle(max_vertices=3) is default

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

    @pytest.fixture(scope="class")
    def stored_micro4(self, tmp_path_factory):
        """A cache dir holding the micro-4 bundle, and its cold build."""
        cache_dir = tmp_path_factory.mktemp("bundle")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(common, "_BUNDLE_MEMO", {})
            cold = load_bundle(max_vertices=4, cache_dir=cache_dir)
        return cache_dir, cold

    def test_warm_load_derives_nothing(self, stored_micro4, monkeypatch, tmp_path):
        cache_dir, _cold = stored_micro4
        calls = Counter()
        for owner, name in DERIVATIONS:
            original = getattr(owner, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        # Compiled IRs are memoized per process; start from none so a
        # compile during the load would reach compile_network.
        nasbench_compile._compile_cached.cache_clear()
        monkeypatch.setattr(common, "_BUNDLE_MEMO", {})
        load_bundle(max_vertices=4, cache_dir=cache_dir)
        assert calls == Counter()

        # The same counters see every derivation of a cold build.
        monkeypatch.setattr(common, "_BUNDLE_MEMO", {})
        load_bundle(max_vertices=3, cache_dir=tmp_path)
        assert set(calls) == {name for _owner, name in DERIVATIONS}

    def test_warm_load_equals_cold_build(self, stored_micro4, monkeypatch):
        cache_dir, cold = stored_micro4
        monkeypatch.setattr(common, "_BUNDLE_MEMO", {})
        warm = load_bundle(max_vertices=4, cache_dir=cache_dir)
        assert warm is not cold
        assert space_goldens.records_digest(warm.database) == (
            space_goldens.records_digest(cold.database)
        )
        for name in ("latency_ms", "area_mm2", "accuracy"):
            warm_array, cold_array = getattr(warm, name), getattr(cold, name)
            assert warm_array.dtype == cold_array.dtype
            assert warm_array.tobytes() == cold_array.tobytes()
        assert space_goldens.front_digest(warm.front) == (
            space_goldens.front_digest(cold.front)
        )

    def test_warm_load_writes_nothing(self, stored_micro4, monkeypatch):
        cache_dir, _cold = stored_micro4
        before = _listing(cache_dir)
        monkeypatch.setattr(common, "_BUNDLE_MEMO", {})
        load_bundle(max_vertices=4, cache_dir=cache_dir)
        assert _listing(cache_dir) == before

    @pytest.mark.parametrize("damage", ["missing member", "another key"])
    def test_damaged_file_is_rebuilt(self, damage, monkeypatch, tmp_path):
        monkeypatch.setattr(common, "_BUNDLE_MEMO", {})
        fresh = load_bundle(max_vertices=3, cache_dir=tmp_path)
        (cache_file,) = tmp_path.iterdir()
        with np.load(cache_file) as stored:
            members = {name: stored[name] for name in stored.files}
        if damage == "missing member":
            np.savez_compressed(
                cache_file, **{k: v for k, v in members.items() if k != "spec_hash"}
            )
        else:
            # A whole bundle file, but the micro-2 one: its shapes agree
            # with its own cell table, so only its key tells it apart.
            other_dir = tmp_path / "other"
            monkeypatch.setattr(common, "_BUNDLE_MEMO", {})
            load_bundle(max_vertices=2, cache_dir=other_dir)
            (other_file,) = other_dir.iterdir()
            other_file.replace(cache_file)
            other_dir.rmdir()

        monkeypatch.setattr(common, "_BUNDLE_MEMO", {})
        rebuilt = load_bundle(max_vertices=3, cache_dir=tmp_path)
        assert space_goldens.records_digest(rebuilt.database) == (
            space_goldens.records_digest(fresh.database)
        )
        assert rebuilt.latency_ms.tobytes() == fresh.latency_ms.tobytes()
        assert space_goldens.front_digest(rebuilt.front) == (
            space_goldens.front_digest(fresh.front)
        )
        # The rebuild rewrote the whole file, and left no temp sibling.
        assert list(tmp_path.iterdir()) == [cache_file]
        with np.load(cache_file) as stored:
            assert sorted(stored.files) == sorted(members)
            assert stored["key"].item() == members["key"].item()

    def test_rebuild_removes_only_unreadable_bundles(self, monkeypatch, tmp_path):
        """A rebuild deletes the bundle files no load of this format reads."""
        monkeypatch.setattr(common, "_BUNDLE_MEMO", {})
        load_bundle(max_vertices=2, cache_dir=tmp_path)
        (other_key,) = tmp_path.iterdir()  # current format, another key
        kept = {other_key.name, "eval_cache.sqlite",
                f"bundle_f{common.BUNDLE_FORMAT}_v3_{'0' * 16}.tmp1.npz"}
        unreadable = {"bundle_v4_n91_h8640.npz", f"bundle_v3_{'0' * 16}.npz",
                      f"bundle_f{common.BUNDLE_FORMAT + 1}_v3_{'0' * 16}.npz"}
        for name in kept | unreadable:
            (tmp_path / name).write_bytes(other_key.read_bytes())

        # A warm load writes nothing, so it deletes nothing either.
        monkeypatch.setattr(common, "_BUNDLE_MEMO", {})
        load_bundle(max_vertices=2, cache_dir=tmp_path)
        assert {path.name for path in tmp_path.iterdir()} == kept | unreadable

        monkeypatch.setattr(common, "_BUNDLE_MEMO", {})
        load_bundle(max_vertices=3, cache_dir=tmp_path)
        (built,) = set(tmp_path.iterdir()) - {tmp_path / name for name in kept}
        assert built.name.startswith(f"bundle_f{common.BUNDLE_FORMAT}_v3_")

    def test_default_cache_matches_a_fresh_build(self, micro4_bundle):
        """The stored micro-4 bundle holds what this code derives.

        ``micro4_bundle`` comes from the default cache, which older code
        may have written.  A change to the enumeration, featurization,
        the CIFAR-10 surrogate or the front that leaves
        ``common.BUNDLE_FORMAT`` alone fails here, instead of letting
        warm loads serve the old values.
        """
        fresh = CellDatabase.from_specs(enumerate_unique_cells(4))
        assert space_goldens.records_digest(micro4_bundle.database) == (
            space_goldens.records_digest(fresh)
        )
        front = product_space_pareto(
            fresh.accuracies(), micro4_bundle.area_mm2, micro4_bundle.latency_ms
        )
        assert space_goldens.front_digest(micro4_bundle.front) == (
            space_goldens.front_digest(front)
        )

    @pytest.mark.slow
    def test_warm_micro5_matches_goldens(self, monkeypatch):
        """Slow only on a cold cache, which must build the micro-5 bundle."""
        load_bundle()
        monkeypatch.setattr(common, "_BUNDLE_MEMO", {})
        warm = load_bundle()
        goldens = json.loads(space_goldens.GOLDENS.read_text())
        assert space_goldens.records_digest(warm.database) == (
            goldens["micro5_records"]["sha256"]
        )
        assert warm.front.num_points == goldens["micro5_front"]["num_points"]
        assert space_goldens.front_digest(warm.front) == (
            goldens["micro5_front"]["sha256"]
        )


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
        from repro.core.pareto import reward_ranked_points
        from repro.core.scenarios import two_constraints

        scenario = two_constraints(micro4_bundle.bounds)
        rows = reward_ranked_points(micro4_bundle.front, scenario, 50)
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
