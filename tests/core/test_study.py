"""Tests for the declarative study API (StudySpec + run_study)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.evaluator import build_evaluator
from repro.core.scenarios import unconstrained
from repro.core.search_space import JointSearchSpace
from repro.core.study import (
    EvaluatorSpec,
    ExecutionSpec,
    StrategySpec,
    StudyError,
    StudySpec,
    build_study,
    outcome_summary,
    parse_assignments,
    replace_execution,
    run_study,
)
from repro.experiments.common import Scale
from repro.experiments.presets import get_preset, list_presets, resolve_spec
from repro.parallel.ledger import LedgerError
from repro.search.combined import CombinedSearch
from repro.search.runner import RepeatJob, run_grid

TINY = Scale(name="tiny", search_steps=25, num_repeats=2, fig7_target_scale=0.05)

REPO_ROOT = Path(__file__).resolve().parents[2]


def tiny_spec(**execution) -> StudySpec:
    execution = {"num_steps": 10, "num_repeats": 1, **execution}
    return StudySpec(
        name="tiny",
        strategies=({"name": "random"},),
        scenarios=("unconstrained",),
        evaluator={"source": "surrogate"},
        execution=execution,
    )


class TestRoundTrips:
    @pytest.mark.parametrize("preset", [
        "search-study", "fig5", "fig6", "fig7", "table2", "table3",
        "ablation-punishment", "ablation-random", "smoke", "hw-sweep",
        "bert-u50",
    ])
    def test_preset_round_trips(self, preset):
        spec = get_preset(preset)
        assert StudySpec.from_dict(spec.to_dict()) == spec
        assert StudySpec.from_json(spec.to_json()) == spec
        # to_dict must be pure JSON (no tuples / numpy scalars).
        json.dumps(spec.to_dict())

    def test_parametrized_presets_cover_all_shipped(self):
        assert set(list_presets()) == {
            "search-study", "fig5", "fig6", "fig7", "table2", "table3",
            "ablation-punishment", "ablation-random", "smoke", "hw-sweep",
            "bert-u50",
        }

    def test_round_trip_with_inline_scenarios_and_params(self):
        spec = StudySpec(
            name="custom",
            strategies=(
                {"name": "evolution",
                 "params": {"population_size": 8, "tournament_size": 3}},
                {"name": "evolution",
                 "params": {"population_size": 4, "tournament_size": 2},
                 "label": "evolution-small"},
            ),
            scenarios=(
                "perf-area>=16",
                {"name": "edge", "weights": [0.2, 0.6, 0.2],
                 "constraints": {"max_area_mm2": 120.0}},
            ),
            evaluator={"source": "surrogate", "params": {"seed": 9}},
            execution={"num_steps": 50, "batch_size": 4},
        )
        assert StudySpec.from_dict(json.loads(spec.to_json())) == spec

    def test_file_round_trip(self, tmp_path):
        spec = get_preset("smoke")
        path = tmp_path / "smoke.json"
        path.write_text(spec.to_json())
        assert StudySpec.from_file(path) == spec

    def test_shipped_example_matches_fig5_preset(self):
        example = REPO_ROOT / "examples" / "study_fig5.json"
        assert StudySpec.from_file(example) == get_preset("fig5")


class TestValidation:
    def base(self) -> dict:
        return {
            "name": "x",
            "strategies": [{"name": "random"}],
            "scenarios": ["unconstrained"],
        }

    def test_unknown_strategy_name(self):
        data = self.base()
        data["strategies"] = [{"name": "gradient-descent"}]
        with pytest.raises(StudyError, match="unknown strategy 'gradient-descent'"):
            StudySpec.from_dict(data)

    def test_unknown_strategy_param(self):
        data = self.base()
        data["strategies"] = [{"name": "evolution", "params": {"popsize": 3}}]
        with pytest.raises(StudyError, match="popsize"):
            StudySpec.from_dict(data)

    @pytest.mark.parametrize(
        "strategy",
        [
            {"name": "evolution", "params": {"population_size": "big"}},
            {"name": "evolution", "params": {"population_size": 0}},
            {"name": "combined", "params": {"hidden_size": 0}},
            {"name": "threshold-schedule", "params": {"rungs": [[2.0, 5, 3]]}},
        ],
    )
    def test_bad_param_value_rejected_at_spec_time(self, strategy):
        # Validation builds each strategy once, so a value its
        # constructor refuses never reaches a run.
        data = self.base()
        data["strategies"] = [strategy]
        field = next(iter(strategy["params"]))
        match = f"study 'x'.*{strategy['name']}.*{field}"
        with pytest.raises(StudyError, match=match):
            StudySpec.from_dict(data)

    def test_unknown_scenario_name(self):
        data = self.base()
        data["scenarios"] = ["zero-latency"]
        with pytest.raises(StudyError, match="unknown scenario 'zero-latency'"):
            StudySpec.from_dict(data)

    def test_malformed_inline_scenario(self):
        data = self.base()
        data["scenarios"] = [{"name": "bad", "weights": [1.0]}]
        with pytest.raises(StudyError, match="weights"):
            StudySpec.from_dict(data)

    def test_conflicting_scenario_refs(self):
        data = self.base()
        data["scenarios"] = [
            "unconstrained",
            {"name": "unconstrained", "weights": [1.0, 0.0, 0.0]},
        ]
        with pytest.raises(StudyError, match="referenced more than once"):
            StudySpec.from_dict(data)

    def test_duplicate_strategy_labels(self):
        data = self.base()
        data["strategies"] = [{"name": "random"}, {"name": "random"}]
        with pytest.raises(StudyError, match="duplicate strategy label"):
            StudySpec.from_dict(data)

    def test_unknown_accuracy_source(self):
        data = self.base()
        data["evaluator"] = {"source": "oracle"}
        with pytest.raises(StudyError, match="unknown accuracy source 'oracle'"):
            StudySpec.from_dict(data)

    @pytest.mark.parametrize(
        "source, params, field",
        [
            ("surrogate", {"bogus": 1}, "bogus"),
            ("database", {"bogus": 1}, "bogus"),
            ("database", {"skeleton": {"num_stacks": 0}}, "skeleton"),
            ("surrogate", {"noise_std": -1.0}, "noise_std"),
            ("cifar100-trainer", {"noise_std": -1.0}, "noise_std"),
            ("surrogate", {"noise_std": float("nan")}, "noise_std"),
            ("cifar100-trainer", {"noise_std": float("nan")}, "noise_std"),
            ("surrogate", {"floor": -5}, "floor"),
            ("surrogate", {"ceiling": 150}, "ceiling"),
            ("surrogate", {"floor": 96}, "floor"),
            ("cifar100-trainer", {"floor": 80}, "floor"),
            ("cifar100-trainer", {"gpu_hours_base": -1.0}, "gpu_hours_base"),
            ("cifar100-trainer", {"gpu_hours_per_gmac": float("inf")}, "per_gmac"),
            ("transformer-analytic", {"seed": 1}, "takes no parameters"),
        ],
    )
    def test_bad_evaluator_params_rejected_at_spec_time(self, source, params, field):
        # An unknown name, or a value the source's constructor refuses,
        # fails here, not mid-run (or, worse, as NaN or pinned rewards).
        data = self.base()
        data["evaluator"] = {"source": source, "params": params}
        with pytest.raises(StudyError, match=f"study 'x'.*{field}"):
            StudySpec.from_dict(data)

    def test_unknown_top_level_field(self):
        data = self.base()
        data["strategy"] = []
        with pytest.raises(StudyError, match="unknown field"):
            StudySpec.from_dict(data)

    def test_bad_execution_values(self):
        for field, value in (
            ("batch_size", 0),
            ("num_steps", 0),
            ("backend", "gpu"),
            ("master_seed", 1.5),
            ("workers", 0),
        ):
            data = self.base()
            data["execution"] = {field: value}
            with pytest.raises(StudyError, match=field):
                StudySpec.from_dict(data)

    def test_exact_fraction_needs_two_tier_mode(self):
        # to_dict drops exact_fraction with surrogate off, so accepting
        # it would break StudySpec.from_dict(s.to_dict()) == s.
        with pytest.raises(StudyError, match="execution.exact_fraction"):
            get_preset("smoke").with_overrides({"execution.exact_fraction": 0.5})
        with pytest.raises(StudyError, match="execution.exact_fraction"):
            ExecutionSpec(exact_fraction=0.5)
        armed = ExecutionSpec(surrogate=True, exact_fraction=0.5)
        assert ExecutionSpec.from_dict(armed.to_dict()) == armed

    def test_non_json_param_rejected(self):
        with pytest.raises(StudyError, match="JSON"):
            StrategySpec("random", params={"rng": object()})

    def test_empty_strategies_rejected(self):
        with pytest.raises(StudyError, match="strategies"):
            StudySpec(name="x", strategies=(), scenarios=("unconstrained",))

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(StudyError, match="not valid JSON"):
            StudySpec.from_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(StudyError, match="not found"):
            StudySpec.from_file(tmp_path / "missing.json")


class TestOverrides:
    def test_set_nested_field(self):
        spec = get_preset("fig5").with_overrides(
            {"execution.batch_size": 16, "strategies.1.name": "random"}
        )
        assert spec.execution.batch_size == 16
        assert spec.strategies[1].name == "random"

    def test_unknown_path_rejected(self):
        with pytest.raises(StudyError, match="no field 'betch_size'"):
            get_preset("fig5").with_overrides({"execution.betch_size": 1})

    def test_list_index_out_of_range(self):
        with pytest.raises(StudyError, match="out of range"):
            get_preset("fig5").with_overrides({"strategies.7.name": "random"})

    def test_override_validates_result(self):
        with pytest.raises(StudyError, match="unknown strategy"):
            get_preset("fig5").with_overrides({"strategies.0.name": "nope"})

    def test_parse_assignments_json_and_string(self):
        parsed = parse_assignments(
            ["execution.batch_size=16", "execution.backend=process",
             "execution.workers=null"]
        )
        assert parsed == {
            "execution.batch_size": 16,
            "execution.backend": "process",
            "execution.workers": None,
        }

    def test_parse_assignments_rejects_bare_word(self):
        with pytest.raises(StudyError, match="path=value"):
            parse_assignments(["batch_size"])

    def test_unset_labels_are_addressable(self):
        # to_dict leaves unset labels out; a path must reach them anyway.
        smoke = get_preset("smoke").with_overrides({"strategies.0.label": "x"})
        assert smoke.strategies[0].effective_label == "x"
        sweep = get_preset("hw-sweep")
        assert sweep.hardware[0].label is None
        relabeled = sweep.with_overrides({"hardware.0.label": "ref"})
        assert relabeled.hardware[0].effective_label == "ref"
        assert relabeled.hardware[1:] == sweep.hardware[1:]

    def test_overrides_leave_to_dict_unchanged(self):
        for name in list_presets():
            spec = get_preset(name)
            assert spec.with_overrides({}).to_dict() == spec.to_dict(), name


class TestResolveSpec:
    def test_preset_name(self):
        assert resolve_spec("smoke") == get_preset("smoke")

    def test_json_path(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(get_preset("smoke").to_json())
        assert resolve_spec(path) == get_preset("smoke")

    def test_unknown_preset(self):
        with pytest.raises(StudyError, match="unknown study preset"):
            resolve_spec("fig99")


class TestRunStudy:
    def test_spec_path_bit_identical_to_legacy_closures(self, micro4_bundle):
        """One strategy x scenario: run_study == hand-rolled closures."""
        scenario = unconstrained(micro4_bundle.bounds)
        space = JointSearchSpace(cell_encoding=micro4_bundle.cell_encoding)
        evaluator = build_evaluator(
            "database", scenario, bundle=micro4_bundle, platform=micro4_bundle.platform
        )
        legacy = run_grid(
            [
                RepeatJob(
                    label="unconstrained/combined",
                    strategy_factory=lambda seed: CombinedSearch(space, seed=seed),
                    evaluator_factory=lambda: evaluator.with_reward(scenario),
                    cache_scenario="study/micro4",
                )
            ],
            num_steps=TINY.search_steps,
            num_repeats=TINY.num_repeats,
            master_seed=5,
        )["unconstrained/combined"]

        spec = StudySpec(
            name="equivalence",
            strategies=({"name": "combined"},),
            scenarios=("unconstrained",),
            evaluator={"source": "database"},
            execution={"master_seed": 5, "batch_size": 1},
        )
        study = run_study(spec, bundle=micro4_bundle, scale=TINY)
        outcome = study.outcomes["unconstrained"]["combined"]
        assert len(outcome.results) == len(legacy.results)
        for ours, theirs in zip(outcome.results, legacy.results):
            assert np.array_equal(
                ours.reward_trace(), theirs.reward_trace(), equal_nan=True
            )
            assert (ours.best is None) == (theirs.best is None)
            if ours.best is not None:
                assert ours.best.reward == theirs.best.reward

    def test_pareto_reference_only_for_bundle_sources(self, micro4_bundle):
        spec = StudySpec(
            name="db",
            strategies=({"name": "random"},),
            scenarios=("unconstrained",),
            evaluator={"source": "database"},
            execution={"num_steps": 10, "num_repeats": 1},
        )
        with_bundle = run_study(spec, bundle=micro4_bundle, scale=TINY)
        assert list(with_bundle.pareto_top100) == ["unconstrained"]
        surrogate = run_study(tiny_spec(), scale=TINY)
        assert surrogate.pareto_top100 == {}

    def test_all_six_strategies_constructible_and_runnable(self, micro4_bundle):
        spec = StudySpec(
            name="all-strategies",
            strategies=(
                {"name": "random"},
                {"name": "evolution",
                 "params": {"population_size": 4, "tournament_size": 2}},
                {"name": "combined"},
                {"name": "separate", "params": {"cnn_fraction": 0.5}},
                {"name": "phase",
                 "params": {"cnn_phase_steps": 4, "hw_phase_steps": 2}},
                {"name": "threshold-schedule",
                 "params": {"rungs": [[2.0, 2, 8], [8.0, 2, 8]]}},
            ),
            scenarios=("unconstrained",),
            evaluator={"source": "database"},
            execution={"num_steps": 8, "num_repeats": 1},
        )
        study = run_study(spec, bundle=micro4_bundle, scale=TINY)
        by_strategy = study.outcomes["unconstrained"]
        assert set(by_strategy) == {
            "random", "evolution", "combined", "separate", "phase",
            "threshold-schedule",
        }
        for outcome in by_strategy.values():
            assert len(outcome.results) == 1
            assert len(outcome.results[0].archive) > 0

    def test_both_accuracy_sources_from_spec(self, micro4_bundle):
        for source, bundle in (("database", micro4_bundle), ("surrogate", None)):
            spec = StudySpec(
                name=f"src-{source}",
                strategies=({"name": "random"},),
                scenarios=("unconstrained",),
                evaluator={"source": source},
                execution={"num_steps": 6, "num_repeats": 1},
            )
            study = run_study(spec, bundle=bundle, scale=TINY)
            assert len(study.outcomes["unconstrained"]["random"].results) == 1

    def test_ledger_pins_spec_and_refuses_edits(self, tmp_path):
        ledger_path = tmp_path / "study.ledger"
        spec = tiny_spec(ledger=str(ledger_path))
        first = run_study(spec, scale=TINY)
        assert len(first.outcomes["unconstrained"]["random"].results) == 1
        # Same spec resumes fine (results load from the ledger).
        again = run_study(spec, scale=TINY)
        assert np.array_equal(
            first.outcomes["unconstrained"]["random"].results[0].reward_trace(),
            again.outcomes["unconstrained"]["random"].results[0].reward_trace(),
            equal_nan=True,
        )
        # Any spec whose to_dict() differs is refused.
        edited = spec.with_overrides({"evaluator.params.seed": 9})
        with pytest.raises(LedgerError):
            run_study(edited, scale=TINY)

    def test_execution_cache_path_used(self, tmp_path):
        cache_path = tmp_path / "evals.sqlite"
        spec = tiny_spec(cache=str(cache_path))
        run_study(spec, scale=TINY)
        assert cache_path.exists()

    def test_ledger_pins_resolved_scenarios_and_namespace(self, tmp_path):
        from repro.parallel.ledger import RunLedger

        ledger_path = tmp_path / "pin.ledger"
        run_study(tiny_spec(), scale=TINY, ledger=str(ledger_path))
        with RunLedger(ledger_path) as ledger:
            context = ledger.run_config()["context"]
        assert context["space"].startswith("study/surrogate")
        # The *resolved* definition is pinned, not just the name — a
        # registry builder that quietly changes refuses to resume.
        assert context["scenarios"]["unconstrained"]["weights"] == [0.1, 0.8, 0.1]

    def test_store_reaches_training_source(self, tmp_path):
        from repro.parallel.cache import EvalCache

        spec = StudySpec(
            name="trainer-store",
            strategies=(
                {"name": "threshold-schedule",
                 "params": {"rungs": [[2.0, 2, 8]]}},
            ),
            scenarios=(
                {"name": "cifar100", "weights": [0.0, 0.0, 1.0],
                 "constraints": {"min_perf_per_area": 2.0}},
            ),
            evaluator={"source": "cifar100-trainer"},
            execution={"num_steps": 4, "num_repeats": 1},
        )
        store = EvalCache(tmp_path / "train.sqlite")
        study = build_study(spec, scale=TINY, store=store)
        evaluator = study.jobs[0].evaluator_factory()
        assert evaluator.source_info["cached"].store is store

    def test_spec_in_result_extras(self):
        spec = tiny_spec()
        study = run_study(spec, scale=TINY)
        assert study.extras["spec"] == spec

    def test_scale_fills_unpinned_budget(self, micro4_bundle):
        spec = StudySpec(
            name="scaled",
            strategies=({"name": "random"},),
            scenarios=("unconstrained",),
            evaluator={"source": "database"},
        )
        study = run_study(spec, bundle=micro4_bundle, scale=TINY)
        outcome = study.outcomes["unconstrained"]["random"]
        assert len(outcome.results) == TINY.num_repeats
        assert len(outcome.results[0].archive) == TINY.search_steps


class TestBuildStudy:
    def test_jobs_and_meta(self, micro4_bundle):
        study = build_study(get_preset("fig5"), bundle=micro4_bundle, scale=TINY)
        assert len(study.jobs) == 9  # 3 strategies x 3 scenarios
        labels = {job.label for job in study.jobs}
        assert "unconstrained/combined" in labels
        assert study.job_meta["unconstrained/combined"] == (
            "unconstrained", "combined",
        )
        assert study.num_steps == TINY.search_steps
        assert study.num_repeats == TINY.num_repeats

    def test_platform_registered_after_import_runs_two_tier(
        self, tmp_path, monkeypatch
    ):
        # A plugin registered after `import repro.hw` gets its learned
        # twin built on demand, like every shipped platform.
        from repro.hw import get_platform, register_platform
        from repro.hw.platform import _PLATFORMS

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        register_platform("plugin-lite", get_platform("embedded-lite").build)
        try:
            def run(platform):
                spec = get_preset("smoke").with_overrides(
                    {"hardware": {"name": platform}, "execution.surrogate": True}
                )
                return outcome_summary(run_study(spec))

            assert run("plugin-lite") == run("embedded-lite")
        finally:
            _PLATFORMS.unregister("plugin-lite")

    def test_replace_execution_keeps_nones(self):
        spec = tiny_spec()
        assert replace_execution(spec) is spec
        bumped = replace_execution(spec, batch_size=3, workers=None)
        assert bumped.execution.batch_size == 3
        assert bumped.execution.num_steps == spec.execution.num_steps


class TestTensorizeSpec:
    """``tensorize`` fields select nothing, but archived specs carry
    them: omitted when off (so historical ledgers stay byte-compatible),
    round-tripping when on, and overridable per hardware entry."""

    def test_defaults_off_and_omitted_from_dict(self):
        spec = tiny_spec()
        assert spec.execution.tensorize is False
        assert "tensorize" not in spec.to_dict()["execution"]

    def test_round_trips_when_set(self):
        spec = tiny_spec(tensorize=True)
        data = spec.to_dict()
        assert data["execution"]["tensorize"] is True
        assert StudySpec.from_dict(data) == spec
        json.dumps(data)

    def test_hardware_entry_round_trips(self):
        spec = StudySpec(
            name="tiny",
            strategies=({"name": "random"},),
            scenarios=("unconstrained",),
            evaluator={"source": "surrogate"},
            hardware=(
                {"name": "embedded-lite", "tensorize": True},
                {"name": "dac2020"},
            ),
            execution={"num_steps": 10, "num_repeats": 1},
        )
        data = spec.to_dict()
        assert data["hardware"][0]["tensorize"] is True
        assert "tensorize" not in data["hardware"][1]
        assert StudySpec.from_dict(data) == spec

    def test_rejects_non_bool(self):
        with pytest.raises(StudyError, match="tensorize"):
            tiny_spec(tensorize="yes")
        with pytest.raises(StudyError, match="tensorize"):
            StudySpec(
                name="tiny",
                strategies=({"name": "random"},),
                scenarios=("unconstrained",),
                evaluator={"source": "surrogate"},
                hardware=({"name": "dac2020", "tensorize": 1},),
                execution={"num_steps": 10, "num_repeats": 1},
            )

    def test_with_overrides_execution_path(self):
        spec = tiny_spec().with_overrides({"execution.tensorize": True})
        assert spec.execution.tensorize is True
        # ...and flipping it back off drops the key again.
        off = spec.with_overrides({"execution.tensorize": False})
        assert "tensorize" not in off.to_dict()["execution"]

    def test_with_overrides_hardware_path(self):
        spec = StudySpec(
            name="tiny",
            strategies=({"name": "random"},),
            scenarios=("unconstrained",),
            evaluator={"source": "surrogate"},
            hardware=({"name": "embedded-lite"},),
            execution={"num_steps": 10, "num_repeats": 1},
        )
        overridden = spec.with_overrides({"hardware.tensorize": True})
        assert overridden.hardware[0].tensorize is True

    #: A spec as archived with both tensorize fields set.
    ARCHIVED = """{
  "name": "archived-tensorize",
  "strategies": [
    {
      "name": "random",
      "params": {}
    }
  ],
  "scenarios": [
    "unconstrained"
  ],
  "evaluator": {
    "source": "surrogate",
    "params": {}
  },
  "hardware": [
    {
      "name": "embedded-lite",
      "params": {},
      "tensorize": true
    },
    {
      "name": "dac2020-scaled",
      "params": {
        "clock_mhz": 300.0
      },
      "tensorize": false
    }
  ],
  "execution": {
    "num_steps": 6,
    "num_repeats": 2,
    "master_seed": 0,
    "batch_size": 1,
    "backend": "serial",
    "workers": null,
    "cache": null,
    "ledger": null,
    "checkpoint_every": 10,
    "tensorize": true
  }
}"""

    def test_archived_fields_pin_resume_and_select_nothing(self, tmp_path):
        from repro.core.study import outcome_summary

        archived = StudySpec.from_json(self.ARCHIVED)
        assert archived.to_json() == self.ARCHIVED
        data = json.loads(self.ARCHIVED)
        del data["execution"]["tensorize"]
        for entry in data["hardware"]:
            del entry["tensorize"]
        plain = StudySpec.from_dict(data)
        ledger = tmp_path / "archived.ledger"
        began = outcome_summary(run_study(archived, scale=TINY, ledger=ledger))
        assert began == outcome_summary(run_study(plain, scale=TINY))
        resumed = run_study(
            StudySpec.from_json(self.ARCHIVED), scale=TINY, ledger=ledger
        )
        assert outcome_summary(resumed) == began
        # The fields are part of the pinned spec text, byte for byte.
        with pytest.raises(LedgerError):
            run_study(plain, scale=TINY, ledger=ledger)


class TestBackendSpec:
    """execution.backend names are validated against the execution-backend
    registry, and execution.backend_params ride along declaratively —
    omitted when empty so historical ledgers stay byte-compatible."""

    def test_registry_backends_all_accepted(self):
        from repro.parallel import list_backends

        for name in list_backends():
            assert tiny_spec(backend=name).execution.backend == name

    def test_unknown_backend_error_lists_registered(self):
        with pytest.raises(StudyError, match="serial"):
            tiny_spec(backend="gpu")

    def test_params_default_empty_and_omitted_from_dict(self):
        spec = tiny_spec()
        assert spec.execution.backend_params == {}
        assert "backend_params" not in spec.to_dict()["execution"]

    def test_params_round_trip(self):
        spec = tiny_spec(
            backend="cluster", backend_params={"stale_after": 5.0}
        )
        data = spec.to_dict()
        assert data["execution"]["backend_params"] == {"stale_after": 5.0}
        assert StudySpec.from_dict(data) == spec
        json.dumps(data)

    def test_unknown_param_rejected_at_spec_time(self):
        with pytest.raises(StudyError, match="bogus"):
            tiny_spec(backend="cluster", backend_params={"bogus": 1})

    def test_params_against_wrong_backend_rejected(self):
        # stale_after belongs to cluster, not serial.
        with pytest.raises(StudyError, match="stale_after"):
            tiny_spec(backend="serial", backend_params={"stale_after": 5.0})

    def test_with_overrides_sets_nested_param(self):
        spec = tiny_spec(backend="cluster").with_overrides(
            {"execution.backend_params.poll_every": 0.5}
        )
        assert spec.execution.backend == "cluster"
        assert spec.execution.backend_params == {"poll_every": 0.5}

    def test_with_overrides_validates_new_backend(self):
        with pytest.raises(StudyError, match="unknown backend"):
            tiny_spec().with_overrides({"execution.backend": "gpu"})

    def test_bad_param_value_surfaces_at_run_time(self, tmp_path):
        # Names validate at spec time; values only at construction.
        spec = tiny_spec(
            backend="cluster", backend_params={"stale_after": -1.0}
        )
        with pytest.raises(StudyError, match="stale_after"):
            run_study(spec, ledger=tmp_path / "x.ledger")
