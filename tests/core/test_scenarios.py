"""Tests for the paper's reward scenarios and the scenario registry."""

import json

import numpy as np
import pytest

from repro.core.metrics import Metrics
from repro.core.reward import Constraints, MetricBounds, RewardConfig, RewardFunction
from repro.core.scenarios import (
    CIFAR100_THRESHOLD_SCHEDULE,
    PAPER_SCENARIOS,
    ScenarioError,
    cifar100_threshold,
    get_scenario,
    get_scenario_builder,
    list_scenarios,
    load_scenario_file,
    make_scenario,
    one_constraint,
    register_scenario,
    resolve_scenarios,
    scenario_from_dict,
    scenario_to_dict,
    two_constraints,
    unconstrained,
)


def random_scenario(rng: np.random.Generator, index: int) -> RewardConfig:
    """A random-but-valid scenario (property-test generator)."""
    weights = rng.random(3)
    constraints = {}
    if rng.random() < 0.5:
        constraints["max_area_mm2"] = float(rng.uniform(60, 200))
    if rng.random() < 0.5:
        constraints["max_latency_ms"] = float(rng.uniform(10, 300))
    if rng.random() < 0.5:
        constraints["min_accuracy"] = float(rng.uniform(85, 95))
    if rng.random() < 0.5:
        constraints["min_perf_per_area"] = float(rng.uniform(1, 40))
    lo_a, hi_a = sorted(rng.uniform(40, 220, 2))
    return make_scenario(
        name=f"prop-{index}",
        weights=tuple(float(w) for w in weights),
        bounds=MetricBounds(
            area_mm2=(float(lo_a), float(hi_a) + 1.0),
            latency_ms=(5.0, float(rng.uniform(100, 500))),
            accuracy=(80.0, float(rng.uniform(90, 99))),
        ),
        punishment_scale=float(rng.uniform(0.2, 3.0)),
        **constraints,
    )


class TestScenarioDefinitions:
    def test_unconstrained_weights(self):
        cfg = unconstrained()
        assert cfg.weights == (0.1, 0.8, 0.1)
        assert cfg.constraints.max_latency_ms is None

    def test_one_constraint(self):
        cfg = one_constraint()
        assert cfg.weights == (0.1, 0.0, 0.9)
        assert cfg.constraints.max_latency_ms == 100.0

    def test_two_constraints(self):
        cfg = two_constraints()
        assert cfg.weights == (0.0, 1.0, 0.0)
        assert cfg.constraints.max_area_mm2 == 100.0
        assert cfg.constraints.min_accuracy == 92.0

    def test_registry_complete(self):
        assert set(PAPER_SCENARIOS) == {"unconstrained", "1-constraint", "2-constraints"}
        for factory in PAPER_SCENARIOS.values():
            factory()

    def test_threshold_schedule_matches_paper(self):
        assert CIFAR100_THRESHOLD_SCHEDULE == (2.0, 8.0, 16.0, 30.0, 40.0)

    def test_cifar100_scenario(self):
        cfg = cifar100_threshold(16.0)
        assert cfg.constraints.min_perf_per_area == 16.0
        assert cfg.weights == (0.0, 0.0, 1.0)
        assert "16" in cfg.name


class TestRegistry:
    def test_paper_scenarios_registered(self):
        names = list_scenarios()
        assert {"unconstrained", "1-constraint", "2-constraints"} <= set(names)
        for threshold in CIFAR100_THRESHOLD_SCHEDULE:
            assert f"perf-area>={threshold:g}" in names

    def test_get_scenario_applies_bounds(self):
        bounds = MetricBounds(area_mm2=(10.0, 20.0))
        cfg = get_scenario("unconstrained", bounds)
        assert cfg.bounds.area_mm2 == (10.0, 20.0)
        assert cfg == unconstrained(bounds)

    def test_parametric_threshold_family(self):
        cfg = get_scenario("perf-area>=12.5")
        assert cfg.constraints.min_perf_per_area == 12.5
        assert cfg == cifar100_threshold(12.5)

    def test_malformed_parametric_name(self):
        with pytest.raises(ScenarioError, match="malformed parametric"):
            get_scenario_builder("perf-area>=fast")

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ScenarioError, match="unconstrained"):
            get_scenario("not-a-scenario")

    def test_register_decorator_and_duplicate_rejection(self):
        name = "test-registry-entry"
        try:
            @register_scenario(name)
            def tiny(bounds=None):
                return make_scenario(name, (1.0, 0.0, 0.0), bounds)

            assert get_scenario(name).name == name
            register_scenario(name, tiny)  # same builder again: no-op

            def other(bounds=None):
                return make_scenario(name, (0.0, 1.0, 0.0), bounds)

            with pytest.raises(ScenarioError, match="already registered"):
                register_scenario(name, other)
            register_scenario(name, other, overwrite=True)  # explicit wins
        finally:
            from repro.core import scenarios as S
            S._REGISTRY.unregister(name)

    def test_resolve_scenarios_defaults_to_paper(self):
        assert set(resolve_scenarios()) == set(PAPER_SCENARIOS)

    def test_resolve_scenarios_by_name(self):
        table = resolve_scenarios(["unconstrained", "perf-area>=4"])
        assert set(table) == {"unconstrained", "perf-area>=4"}
        assert table["perf-area>=4"]().constraints.min_perf_per_area == 4.0


class TestJsonRoundTrip:
    def test_every_registered_scenario_round_trips(self):
        bounds = MetricBounds(area_mm2=(45.0, 250.0))
        for name in list_scenarios():
            config = get_scenario(name, bounds)
            spec = scenario_to_dict(config)
            rebuilt = scenario_from_dict(json.loads(json.dumps(spec)))
            assert rebuilt == config, name

    def test_random_scenarios_round_trip(self):
        """Property: any valid config survives dict -> JSON -> dict."""
        rng = np.random.default_rng(7)
        for i in range(50):
            config = random_scenario(rng, i)
            spec = json.loads(json.dumps(scenario_to_dict(config)))
            assert scenario_from_dict(spec) == config

    def test_omitted_bounds_fall_back_to_caller(self):
        spec = {"name": "lean", "weights": [0, 1, 0]}
        bounds = MetricBounds(latency_ms=(1.0, 50.0))
        cfg = scenario_from_dict(spec, bounds)
        assert cfg.bounds.latency_ms == (1.0, 50.0)

    def test_partial_bounds_merge_with_caller(self):
        spec = {"name": "lean", "weights": [0, 1, 0], "bounds": {"accuracy": [70, 99]}}
        bounds = MetricBounds(latency_ms=(1.0, 50.0))
        cfg = scenario_from_dict(spec, bounds)
        assert cfg.bounds.accuracy == (70.0, 99.0)
        assert cfg.bounds.latency_ms == (1.0, 50.0)


class TestMalformedSpecs:
    @pytest.mark.parametrize(
        "spec, message",
        [
            ("not a dict", "must be a mapping"),
            ({}, "non-empty string 'name'"),
            ({"name": "x"}, "'weights' must be three numbers"),
            ({"name": "x", "weights": [1, 2]}, "'weights' must be three numbers"),
            ({"name": "x", "weights": [1, 2, "a"]}, "must be a number"),
            ({"name": "x", "weights": [1, -1, 0]}, "non-negative"),
            ({"name": "x", "weights": [1, 0, 0], "constraints": {"max_flops": 1}}, "unknown constraint"),
            ({"name": "x", "weights": [1, 0, 0], "constraints": {"max_area_mm2": -5}}, "must be positive"),
            ({"name": "x", "weights": [1, 0, 0], "constraints": []}, "'constraints' must be a mapping"),
            ({"name": "x", "weights": [1, 0, 0], "bounds": {"area_mm2": [5]}}, r"must be \[lo, hi\]"),
            ({"name": "x", "weights": [1, 0, 0], "bounds": {"area_mm2": [9, 9]}}, "lo < hi"),
            ({"name": "x", "weights": [1, 0, 0], "bounds": {"speed": [1, 2]}}, "unknown bound"),
            ({"name": "x", "weights": [1, 0, 0], "punishment_scale": 0}, "punishment_scale must be positive"),
            ({"name": "x", "weights": [1, 0, 0], "reward": "big"}, "unknown scenario spec field"),
            ({"name": "x", "weights": [True, 0, 0]}, "must be a number"),
        ],
    )
    def test_rejected_with_clear_error(self, spec, message):
        with pytest.raises(ScenarioError, match=message):
            scenario_from_dict(spec)


class TestScenarioFiles:
    def test_single_spec_and_list(self, tmp_path):
        single = tmp_path / "one.json"
        single.write_text(json.dumps({"name": "a", "weights": [1, 0, 0]}))
        assert set(load_scenario_file(single)) == {"a"}
        multi = tmp_path / "many.json"
        multi.write_text(json.dumps([
            {"name": "a", "weights": [1, 0, 0]},
            {"name": "b", "weights": [0, 1, 0], "constraints": {"max_latency_ms": 30}},
        ]))
        table = resolve_scenarios(scenario_file=multi)
        assert set(table) == {"a", "b"}
        assert table["b"]().constraints.max_latency_ms == 30.0

    def test_file_builders_accept_bounds(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"name": "a", "weights": [1, 0, 0]}))
        bounds = MetricBounds(area_mm2=(1.0, 2.0))
        assert load_scenario_file(path)["a"](bounds).bounds.area_mm2 == (1.0, 2.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario_file(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario_file(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps([
            {"name": "a", "weights": [1, 0, 0]},
            {"name": "a", "weights": [0, 1, 0]},
        ]))
        with pytest.raises(ScenarioError, match="twice"):
            load_scenario_file(path)

    def test_name_and_file_collision_rejected(self, tmp_path):
        path = tmp_path / "clash.json"
        path.write_text(json.dumps({"name": "unconstrained", "weights": [1, 0, 0]}))
        with pytest.raises(ScenarioError, match="selected by name AND defined"):
            resolve_scenarios(["unconstrained"], path)


class TestNanMaskingProperty:
    """reward_array is NaN exactly on infeasible metric vectors."""

    def test_nan_mask_matches_constraints(self):
        rng = np.random.default_rng(11)
        for i in range(25):
            config = random_scenario(rng, i)
            reward_fn = RewardFunction(config)
            n = 200
            area = rng.uniform(20, 260, n)
            latency = rng.uniform(1, 500, n)
            accuracy = rng.uniform(70, 99, n)
            rewards = reward_fn.reward_array(area, latency, accuracy)
            for k in range(n):
                metrics = Metrics(
                    accuracy=float(accuracy[k]),
                    latency_s=float(latency[k]) / 1e3,
                    area_mm2=float(area[k]),
                )
                feasible = config.constraints.satisfied(metrics)
                assert np.isnan(rewards[k]) == (not feasible), (
                    f"scenario {config.name}: NaN mask diverged from "
                    f"constraint feasibility at point {k}"
                )
                if feasible:
                    scalar = reward_fn(metrics)
                    assert scalar.feasible
                    assert rewards[k] == pytest.approx(scalar.value, rel=1e-12)
