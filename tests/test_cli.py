"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, main
from repro.experiments.presets import get_preset, list_presets


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

    def test_study_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["study"])
