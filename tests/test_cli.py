"""Tests for the command-line interface."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, main
from repro.experiments.common import Scale
from repro.experiments.presets import get_preset, list_presets


def _load_run_goldens():
    path = Path(__file__).resolve().parent / "data" / "generate_run_goldens.py"
    spec = importlib.util.spec_from_file_location("generate_run_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_goldens = _load_run_goldens()
RUN_GOLDENS = json.loads(run_goldens.GOLDENS.read_text())


@pytest.fixture
def small_run(monkeypatch, micro4_bundle):
    """Point ``repro run`` at the micro-4 bundle and the goldens' scale."""
    monkeypatch.setattr("repro.cli.load_bundle", lambda *args, **kwargs: micro4_bundle)
    monkeypatch.setattr("repro.cli._resolve_scale", lambda name: run_goldens.SCALE)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "BRAM" in out and "Total" in out

    def test_run_validation_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "v.md"
        assert main(["run", "validation", "--out", str(out_file)]) == 0
        assert "mean error" in out_file.read_text()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_scale_flag_accepted(self, capsys):
        assert main(["run", "table1", "--scale", "smoke"]) == 0


class TestStudyFlags:
    def test_scenario_rejected_for_non_study_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "table1", "--scenario", "unconstrained"])

    def test_batch_size_rejected_for_non_study_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "table1", "--batch-size", "8"])

    def test_unknown_scenario_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig5", "--scenario", "bogus"])

    def test_bad_batch_size_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig5", "--batch-size", "0"])

    def test_zero_exact_fraction_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "fig5", "--surrogate", "--exact-fraction", "0"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "0"],
            ["--checkpoint-every", "0"],
            ["--surrogate", "--exact-fraction", "1.5"],
        ],
    )
    def test_out_of_range_value_is_a_usage_error(self, flags):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "fig5", *flags])
        assert exit_info.value.code == 2

    def test_resume_with_other_flags_is_a_usage_error(self, small_run, tmp_path, capsys):
        ledger = str(tmp_path / "run.ledger")
        flags = ["fig5", "--scenario", "unconstrained", "--ledger", ledger]
        assert main(["run", *flags]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["resume", *flags, "--seed", "1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "different run configuration" in err
        assert "Traceback" not in err

    def test_retired_surrogate_platform_name_is_a_usage_error(self, small_run, capsys):
        # Learned twins are no longer registered platforms, so a ledger
        # that pinned a `surrogate:<name>` platform cannot resume silently.
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "fig5", "--hardware", "surrogate:embedded-lite", "--surrogate"])
        assert exit_info.value.code == 2
        assert "unknown hardware platform 'surrogate:embedded-lite'" in (
            capsys.readouterr().err
        )


class TestStudyCommand:
    def test_list_names_every_preset(self, capsys):
        assert main(["study", "list"]) == 0
        out = capsys.readouterr().out
        for name in list_presets():
            assert name in out

    def test_show_prints_resolved_spec(self, capsys):
        assert main(["study", "show", "fig5"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown == get_preset("fig5").to_dict()

    def test_show_applies_overrides(self, capsys):
        assert main(
            ["study", "show", "fig5", "--set", "execution.batch_size=16"]
        ) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["execution"]["batch_size"] == 16

    def test_show_every_shipped_preset(self, capsys):
        for name in list_presets():
            assert main(["study", "show", name]) == 0
            json.loads(capsys.readouterr().out)

    def test_run_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "tiny.json"
        spec_file.write_text(
            get_preset("smoke").with_overrides(
                {"name": "tiny-cli"}
            ).to_json()
        )
        out_file = tmp_path / "report.md"
        assert main(
            ["study", "run", str(spec_file), "--out", str(out_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "study tiny-cli" in out
        assert "random" in out
        assert out_file.read_text().startswith("## study tiny-cli")

    def test_run_preset_with_override(self, capsys):
        assert main(
            ["study", "run", "smoke", "--set", "execution.num_steps=3"]
        ) == 0
        assert "study smoke" in capsys.readouterr().out

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["study", "run", "fig99"])

    def test_bad_override_path_rejected(self):
        with pytest.raises(SystemExit):
            main(["study", "show", "fig5", "--set", "execution.bogus=1"])

    def test_invalid_override_value_rejected(self):
        with pytest.raises(SystemExit):
            main(["study", "show", "fig5", "--set", "strategies.0.name=nope"])

    @pytest.mark.parametrize("command", ["show", "run"])
    def test_out_of_range_strategy_value_is_a_usage_error(self, command, capsys):
        strategies = '[{"name": "combined", "params": {"hidden_size": 0}}]'
        with pytest.raises(SystemExit) as exit_info:
            main(["study", command, "smoke", "--set", f"strategies={strategies}"])
        assert exit_info.value.code == 2
        assert "hidden_size" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["learning_rate", "entropy_beta", "grad_clip"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_controller_value_in_a_spec_file(self, tmp_path, capsys, field, value):
        # JSON reads NaN and Infinity, so a spec file can carry them.
        strategies = [{"name": "combined", "params": {"reinforce_config": {field: value}}}]
        spec_file = tmp_path / "nan.json"
        spec_file.write_text(
            json.dumps({**get_preset("smoke").to_dict(), "strategies": strategies})
        )
        with pytest.raises(SystemExit) as exit_info:
            main(["study", "show", str(spec_file)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"{field} must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["show", "run"])
    @pytest.mark.parametrize(
        "params, field", [({"bogus": 1}, "bogus"), ({"noise_std": -1.0}, "noise_std")]
    )
    def test_bad_accuracy_source_params_in_a_spec_file(
        self, tmp_path, capsys, command, params, field
    ):
        evaluator = {"source": "surrogate", "params": params}
        spec_file = tmp_path / "bad-source.json"
        spec_file.write_text(
            json.dumps({**get_preset("smoke").to_dict(), "evaluator": evaluator})
        )
        with pytest.raises(SystemExit) as exit_info:
            main(["study", command, str(spec_file)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["show", "run"])
    def test_two_tier_threshold_schedule_is_a_usage_error(self, command, capsys):
        # The schedule re-arms its reward at every rung, so two-tier
        # mode is refused when the spec is read, never mid-run.
        with pytest.raises(SystemExit) as exit_info:
            main([
                "study", command, "fig7", "--surrogate",
                "--set", "execution.num_steps=5", "--set", "execution.num_repeats=1",
            ])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "'threshold-schedule' does not support two-tier" in err
        assert "Traceback" not in err

    def test_ledger_mismatch_is_a_usage_error(self, tmp_path, capsys):
        flags = ["--set", f"execution.ledger={tmp_path / 'study.ledger'}"]
        assert main(["study", "run", "smoke", *flags]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["study", "run", "smoke", *flags, "--set", "execution.master_seed=1"])
        assert exit_info.value.code == 2
        assert "different run configuration" in capsys.readouterr().err

    def test_exact_fraction_on_a_two_tier_preset(self, capsys):
        # bert-u50 is two-tier already: the flag needs no --surrogate.
        assert main(["study", "show", "bert-u50", "--exact-fraction", "0.1"]) == 0
        assert json.loads(capsys.readouterr().out)["execution"]["exact_fraction"] == 0.1

    def test_exact_fraction_without_two_tier_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["study", "show", "smoke", "--set", "execution.exact_fraction=0.5"])
        assert exit_info.value.code == 2
        assert "execution.exact_fraction" in capsys.readouterr().err

    def test_study_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["study"])


class TestRunFig7:
    def test_warm_cache_rerun_prints_identical_report(
        self, monkeypatch, tmp_path, capsys
    ):
        # The search cost is read off the archive, so a re-run served
        # from the eval cache reports the same GPU-hours as the cold run.
        tiny = Scale("tiny", search_steps=12, num_repeats=1, fig7_target_scale=0.01)
        monkeypatch.setattr("repro.cli._resolve_scale", lambda name: tiny)
        runs = []
        for _ in range(2):
            assert main(["run", "fig7", "--cache-dir", str(tmp_path)]) == 0
            runs.append(capsys.readouterr())
        cold, warm = runs
        assert "simulated GPU-hours" in cold.out
        assert "100% hit rate" in warm.err
        assert warm.out == cold.out


class TestRunGoldens:
    """``repro run fig5|fig6|fig5+6``: reports and ledger pins are frozen.

    ``tests/data/run_goldens.json`` was generated by
    ``tests/data/generate_run_goldens.py`` before the CLI built its
    study spec itself; every case replays through that script's
    ``run_case``.  A changed ``run_config`` digest means a ledger begun
    by the older code would no longer resume.
    """

    def test_goldens_cover_every_case(self):
        assert sorted(RUN_GOLDENS) == sorted(run_goldens.CASES)

    @pytest.mark.parametrize("name", sorted(RUN_GOLDENS))
    def test_case_matches_golden(self, micro4_bundle, tmp_path, name):
        assert run_goldens.run_case(name, micro4_bundle, tmp_path) == RUN_GOLDENS[name]
