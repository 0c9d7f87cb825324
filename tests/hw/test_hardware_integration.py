"""Platform threading through evaluator, study specs, and the CLI."""

import json

import numpy as np
import pytest

from repro.core.evaluator import (
    CodesignEvaluator,
    build_evaluator,
    hardware_namespace,
)
from repro.core.scenarios import unconstrained
from repro.core.study import HardwareSpec, StudyError, StudySpec, build_study, run_study
from repro.experiments.common import Scale
from repro.hw import build_platform, default_platform
from repro.nasbench.database import sample_unique_cells

TINY = Scale(name="tiny", search_steps=8, num_repeats=1, fig7_target_scale=0.05)


def sweep_spec(**execution) -> StudySpec:
    execution = {"num_steps": 6, "num_repeats": 1, **execution}
    return StudySpec(
        name="sweep",
        strategies=({"name": "random"},),
        scenarios=("unconstrained",),
        evaluator={"source": "surrogate"},
        hardware=(
            {"name": "dac2020"},
            {"name": "embedded-lite"},
            {"name": "dac2020-scaled", "params": {"clock_mhz": 300.0},
             "label": "fast"},
        ),
        execution=execution,
    )


class TestEvaluatorPlatform:
    def test_default_platform_results_unchanged(self, default_config):
        """Platform-built evaluator == legacy default construction."""
        cell = sample_unique_cells(1, seed=3)[0]
        legacy = CodesignEvaluator.from_surrogate(unconstrained())
        ours = CodesignEvaluator.from_surrogate(
            unconstrained(), platform=default_platform()
        )
        a = legacy.evaluate(cell, default_config)
        b = ours.evaluate(cell, default_config)
        assert a.metrics.latency_s == b.metrics.latency_s
        assert a.metrics.area_mm2 == b.metrics.area_mm2
        assert a.reward.value == b.reward.value

    def test_platform_changes_metrics(self, default_config):
        cell = sample_unique_cells(1, seed=3)[0]
        reference = CodesignEvaluator.from_surrogate(unconstrained())
        scaled = CodesignEvaluator.from_surrogate(
            unconstrained(),
            platform=build_platform(
                "dac2020-scaled", {"clock_mhz": 75.0, "area_scale": 2.0}
            ),
        )
        slow = scaled.evaluate(cell, default_config).metrics
        base = reference.evaluate(cell, default_config).metrics
        assert slow.latency_s >= base.latency_s
        assert slow.area_mm2 == pytest.approx(2.0 * base.area_mm2)

    def test_build_evaluator_threads_platform(self):
        platform = build_platform("embedded-lite")
        evaluator = build_evaluator(
            "surrogate", unconstrained(), platform=platform
        )
        assert evaluator.platform is platform
        assert evaluator.with_reward(unconstrained()).platform is platform

    def test_database_source_skips_table_on_other_platform(self, micro4_bundle):
        scenario = unconstrained(micro4_bundle.bounds)
        reference = build_evaluator("database", scenario, bundle=micro4_bundle)
        assert reference._latency_table is not None
        other = build_evaluator(
            "database", scenario, bundle=micro4_bundle,
            platform=build_platform("dac2020-scaled", {"clock_mhz": 75.0}),
        )
        assert other._latency_table is None
        # ... and still evaluates, through its own models.
        spec = micro4_bundle.database.records[0].spec
        config = micro4_bundle.space.config_at(0)
        assert (
            other.evaluate(spec, config).metrics.latency_s
            > reference.evaluate(spec, config).metrics.latency_s
        )

    def test_database_source_skips_table_on_other_skeleton(self, micro4_bundle):
        """The bundle's table holds CIFAR10_SKELETON latencies only."""
        from repro.nasbench.compile import compile_cell_ops

        params = {"skeleton": {"num_stacks": 6}}
        evaluator = build_evaluator(
            "database", unconstrained(micro4_bundle.bounds), params,
            bundle=micro4_bundle,
        )
        assert evaluator._latency_table is None
        spec = micro4_bundle.database.records[0].spec
        config = micro4_bundle.space.config_at(0)
        ir = compile_cell_ops(spec, evaluator.skeleton)
        assert evaluator.evaluate(spec, config).metrics.latency_s == (
            evaluator.platform.network_latency_s(ir, config)
        )
        # ... and the bundle's arrays are no Pareto reference for it.
        study_spec = StudySpec(
            name="deep-db",
            strategies=({"name": "random"},),
            scenarios=("unconstrained",),
            evaluator={"source": "database", "params": params},
            execution={"num_steps": 5, "num_repeats": 1},
        )
        study = build_study(study_spec, bundle=micro4_bundle, scale=TINY)
        assert study.pareto_top100 == {}

    def test_bundle_table_attaches_for_equivalent_platform(self):
        """Namespace equality, not object identity, gates the table."""
        from repro.experiments.common import load_bundle

        bundle = load_bundle(max_vertices=4, platform=build_platform("embedded-lite"))
        scenario = unconstrained(bundle.bounds)
        # A *fresh* equivalent instance (what build_study constructs
        # from the spec) must still get the precomputed table.
        evaluator = build_evaluator(
            "database", scenario, bundle=bundle,
            platform=build_platform("embedded-lite"),
        )
        assert evaluator._latency_table is not None
        spec = StudySpec(
            name="embedded-db",
            strategies=({"name": "random"},),
            scenarios=("unconstrained",),
            evaluator={"source": "database"},
            hardware="embedded-lite",
            execution={"num_steps": 5, "num_repeats": 1},
        )
        study = build_study(spec, bundle=bundle, scale=TINY)
        # ... and the Pareto overlay applies, since the bundle's
        # arrays were enumerated by this very platform.
        assert list(study.pareto_top100) == ["unconstrained"]

    def test_attach_table_refuses_space_mismatch(self, micro4_bundle):
        evaluator = CodesignEvaluator.from_surrogate(
            unconstrained(), platform=build_platform("embedded-lite")
        )
        with pytest.raises(ValueError, match="config space does not match"):
            evaluator.attach_latency_table(
                micro4_bundle.latency_ms,
                micro4_bundle.row_of_hash(),
                micro4_bundle.space,
            )

    def test_attach_table_refuses_wrong_width(self, micro4_bundle):
        evaluator = CodesignEvaluator.from_surrogate(unconstrained())
        with pytest.raises(ValueError, match="columns"):
            evaluator.attach_latency_table(
                micro4_bundle.latency_ms[:, :10],
                micro4_bundle.row_of_hash(),
                micro4_bundle.space,
            )

    def test_hardware_namespace_composition(self):
        assert hardware_namespace("study/x", None) == "study/x"
        assert hardware_namespace("study/x", default_platform()) == "study/x"
        embedded = build_platform("embedded-lite")
        assert (
            hardware_namespace("study/x", embedded)
            == "study/x@hw/embedded-lite"
        )


class TestLRUBoundedCaches:
    def test_caches_respect_capacity(self):
        from tests.conftest import sample_configs

        cell = sample_unique_cells(1, seed=5)[0]
        evaluator = CodesignEvaluator.from_surrogate(
            unconstrained(), cache_capacity=4
        )
        configs = sample_configs(10, seed=6)
        first = [evaluator.evaluate(cell, c).metrics for c in configs]
        assert len(evaluator._area_cache) <= 4
        assert len(evaluator._latency_cache) <= 4
        # Eviction never changes results — recomputation is pure.
        again = [evaluator.evaluate(cell, c).metrics for c in configs]
        for a, b in zip(first, again):
            assert a.latency_s == b.latency_s
            assert a.area_mm2 == b.area_mm2

    def test_default_capacity_bounds_the_memos(self):
        from repro.core.evaluator import DEFAULT_CACHE_CAPACITY

        evaluator = CodesignEvaluator.from_surrogate(unconstrained())
        assert evaluator._area_cache.capacity == DEFAULT_CACHE_CAPACITY
        assert evaluator._latency_cache.capacity == DEFAULT_CACHE_CAPACITY


class TestStudyHardware:
    def test_spec_round_trips_hardware(self):
        spec = sweep_spec()
        assert StudySpec.from_dict(spec.to_dict()) == spec
        assert StudySpec.from_json(spec.to_json()) == spec
        json.dumps(spec.to_dict())

    def test_default_hardware_normalized_and_omitted_from_dict(self):
        spec = StudySpec(
            name="d", strategies=({"name": "random"},),
            scenarios=("unconstrained",), evaluator={"source": "surrogate"},
        )
        assert spec.hardware == (HardwareSpec(),)
        # The implicit reference platform must serialize to nothing:
        # ledgers pinned spec.to_dict() before this field existed, and
        # those runs must stay resumable.
        assert "hardware" not in spec.to_dict()
        assert StudySpec.from_dict(spec.to_dict()) == spec

    def test_non_default_hardware_serialized(self):
        spec = StudySpec(
            name="d", strategies=({"name": "random"},),
            scenarios=("unconstrained",), evaluator={"source": "surrogate"},
            hardware="embedded-lite",
        )
        assert spec.to_dict()["hardware"] == {
            "name": "embedded-lite", "params": {},
        }

    def test_pre_platform_ledger_still_resumes(self, tmp_path):
        """A ledger pinned by a spec dict without 'hardware' resumes."""
        import json
        import sqlite3

        ledger_path = tmp_path / "old.ledger"
        spec = StudySpec(
            name="old", strategies=({"name": "random"},),
            scenarios=("unconstrained",), evaluator={"source": "surrogate"},
            execution={"num_steps": 5, "num_repeats": 1,
                       "ledger": str(ledger_path)},
        )
        first = run_study(spec, scale=TINY)
        # Simulate a pre-platform ledger: the pinned spec has no
        # 'hardware' key (this is a no-op today — the assert proves it).
        with sqlite3.connect(ledger_path) as conn:
            row = conn.execute(
                "SELECT value FROM meta WHERE key='run_config'"
            ).fetchone()
            config = json.loads(row[0])
            assert "hardware" not in config["context"]["study_spec"]
        again = run_study(spec, scale=TINY)
        assert np.array_equal(
            first.outcomes["unconstrained"]["random"].results[0].reward_trace(),
            again.outcomes["unconstrained"]["random"].results[0].reward_trace(),
            equal_nan=True,
        )

    def test_hardware_accepts_bare_name(self):
        spec = StudySpec(
            name="d", strategies=({"name": "random"},),
            scenarios=("unconstrained",), evaluator={"source": "surrogate"},
            hardware="embedded-lite",
        )
        assert spec.hardware == (HardwareSpec(name="embedded-lite"),)

    def test_unknown_platform_rejected(self):
        with pytest.raises(StudyError, match="unknown hardware platform"):
            StudySpec(
                name="d", strategies=({"name": "random"},),
                scenarios=("unconstrained",),
                evaluator={"source": "surrogate"},
                hardware="tpu-v9",
            ).validate()

    def test_bad_platform_params_rejected(self):
        with pytest.raises(StudyError, match="clock_mhz"):
            StudySpec(
                name="d", strategies=({"name": "random"},),
                scenarios=("unconstrained",),
                evaluator={"source": "surrogate"},
                hardware={"name": "dac2020-scaled",
                          "params": {"clock_mhz": -1}},
            ).validate()

    def test_duplicate_hardware_labels_rejected(self):
        with pytest.raises(StudyError, match="duplicate hardware label"):
            StudySpec(
                name="d", strategies=({"name": "random"},),
                scenarios=("unconstrained",),
                evaluator={"source": "surrogate"},
                hardware=(
                    {"name": "dac2020-scaled", "params": {"clock_mhz": 100.0}},
                    {"name": "dac2020-scaled", "params": {"clock_mhz": 200.0}},
                ),
            )

    def test_hardware_name_override(self):
        spec = StudySpec(
            name="d", strategies=({"name": "random"},),
            scenarios=("unconstrained",), evaluator={"source": "surrogate"},
        ).with_overrides({"hardware.name": "embedded-lite"})
        assert spec.hardware[0].name == "embedded-lite"

    def test_build_study_per_platform_jobs_and_namespaces(self):
        study = build_study(sweep_spec(), scale=TINY)
        assert len(study.jobs) == 3  # 3 platforms x 1 scenario x 1 strategy
        assert set(study.job_meta) == {
            "dac2020:unconstrained/random",
            "embedded-lite:unconstrained/random",
            "fast:unconstrained/random",
        }
        assert set(study.platforms) == {"dac2020", "embedded-lite", "fast"}
        # Distinct cache namespaces per platform (reference adds none).
        assert len(set(study.namespaces.values())) == 3
        assert study.namespaces["dac2020"].startswith("study/surrogate")
        assert "@hw/" not in study.namespaces["dac2020"]
        assert "@hw/embedded-lite" in study.namespaces["embedded-lite"]

    def test_single_platform_keeps_legacy_labels_and_namespace(self):
        spec = StudySpec(
            name="single", strategies=({"name": "random"},),
            scenarios=("unconstrained",), evaluator={"source": "surrogate"},
            execution={"num_steps": 5, "num_repeats": 1},
        )
        study = build_study(spec, scale=TINY)
        assert list(study.job_meta) == ["unconstrained/random"]
        assert study.namespace.startswith("study/surrogate")

    def test_sweep_runs_end_to_end_with_per_platform_outcomes(self, tmp_path):
        ledger_path = tmp_path / "sweep.ledger"
        result = run_study(sweep_spec(ledger=str(ledger_path)), scale=TINY)
        assert set(result.outcomes) == {
            "dac2020:unconstrained",
            "embedded-lite:unconstrained",
            "fast:unconstrained",
        }
        rewards = {
            key: by_strategy["random"].mean_best_reward()
            for key, by_strategy in result.outcomes.items()
        }
        # Different hardware models, different outcomes.
        assert len({round(v, 12) for v in rewards.values()}) > 1
        from repro.parallel.ledger import RunLedger

        with RunLedger(ledger_path) as ledger:
            context = ledger.run_config()["context"]
        assert set(context["space"]) == {"dac2020", "embedded-lite", "fast"}
        assert len(set(context["space"].values())) == 3

    def test_sweep_rerun_resumes_from_ledger(self, tmp_path):
        ledger_path = tmp_path / "sweep.ledger"
        spec = sweep_spec(ledger=str(ledger_path))
        first = run_study(spec, scale=TINY)
        again = run_study(spec, scale=TINY)
        for key in first.outcomes:
            assert np.array_equal(
                first.outcomes[key]["random"].results[0].reward_trace(),
                again.outcomes[key]["random"].results[0].reward_trace(),
                equal_nan=True,
            )

    def test_database_sweep_searches_platform_space(self, micro4_bundle):
        spec = StudySpec(
            name="db-sweep",
            strategies=({"name": "random"},),
            scenarios=("unconstrained",),
            evaluator={"source": "database"},
            hardware=({"name": "dac2020"}, {"name": "embedded-lite"}),
            execution={"num_steps": 6, "num_repeats": 1},
        )
        study = build_study(spec, bundle=micro4_bundle, scale=TINY)
        # The Pareto overlay only applies to the platform that
        # enumerated the bundle.
        assert list(study.pareto_top100) == ["dac2020:unconstrained"]
        result = run_study(spec, bundle=micro4_bundle, scale=TINY)
        embedded_space = study.platforms["embedded-lite"].config_space()
        outcome = result.outcomes["embedded-lite:unconstrained"]["random"]
        for entry in outcome.results[0].archive.entries:
            assert entry.config.pixel_par <= 16
            assert embedded_space.index_of(entry.config) < embedded_space.size


class TestHardwareCli:
    def test_hw_list(self, capsys):
        from repro.cli import main

        assert main(["hw", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert {"dac2020", "dac2020-scaled", "embedded-lite"} <= set(out)

    def test_hw_show(self, capsys):
        from repro.cli import main

        assert main(["hw", "show", "dac2020-scaled"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["name"] == "dac2020-scaled"
        assert shown["config_space_size"] == 8640
        assert "description" in shown

    def test_hw_show_unknown_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["hw", "show", "tpu-v9"])

    def test_hw_list_includes_surrogate_twins(self, capsys):
        from repro.cli import main

        assert main(["hw", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert "surrogate:dac2020" in out
        assert "surrogate:embedded-lite" in out

    def test_hw_show_set_reports_effective_space(self, capsys):
        # The regression: show once printed the default-params space
        # for parametric platforms; with --set it must report the
        # budget-capped effective size.
        from repro.cli import main

        assert main(
            ["hw", "show", "dac2020-scaled", "--set", "max_pixel_par=16"]
        ) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["config_space_size"] == 5184
        assert max(shown["parameter_values"]["pixel_par"]) == 16

    def test_hw_show_surrogate_includes_budget_report(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["hw", "show", "surrogate:embedded-lite"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["name"] == "surrogate:embedded-lite"
        assert shown["cache_namespace"].startswith("hw/surrogate:embedded-lite/m")
        assert shown["error_budget"]["passed"] is True
        assert "latency" in shown["error_report"]

    def test_hw_validate_surrogate(self, capsys, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(
            ["hw", "validate-surrogate", "embedded-lite", "--samples", "64"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["budget"]["passed"] is True
        assert report["platform"] == "embedded-lite"

    def test_hw_validate_surrogate_budget_failure_exits_nonzero(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.cli import main
        from repro.hw import surrogate as surrogate_mod

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        impossible = {
            metric: {
                "mean_rel_error": 0.0,
                "max_rel_error": 0.0,
                "min_rank_corr": 1.1,
            }
            for metric in ("area", "latency")
        }
        monkeypatch.setattr(surrogate_mod, "DEFAULT_ERROR_BUDGET", impossible)
        assert main(
            ["hw", "validate-surrogate", "embedded-lite", "--samples", "64"]
        ) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["budget"]["passed"] is False
        assert "budget" in captured.err

    def test_study_show_hardware_flag(self, capsys):
        from repro.cli import main

        assert main(["study", "show", "smoke", "--hardware", "embedded-lite"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["hardware"] == {"name": "embedded-lite", "params": {}}

    def test_study_run_on_non_default_platform(self, capsys):
        from repro.cli import main

        assert main(
            ["study", "run", "smoke", "--set", "execution.num_steps=4",
             "--hardware", "embedded-lite"]
        ) == 0
        assert "study smoke" in capsys.readouterr().out

    def test_hardware_flag_rejected_for_non_hw_experiment(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "table1", "--hardware", "embedded-lite"])

    def test_unknown_hardware_name_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "fig5", "--hardware", "bogus"])
