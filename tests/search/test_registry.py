"""Tests for the strategy registry and from_params construction."""

import numpy as np
import pytest

from repro.core.scenarios import unconstrained
from repro.core.search_space import JointSearchSpace
from repro.experiments.search_study import make_bundle_evaluator
from repro.search.base import SearchStrategy
from repro.search.combined import CombinedSearch
from repro.search.evolution import EvolutionSearch
from repro.search.registry import (
    StrategyError,
    build_strategy,
    get_strategy,
    list_strategies,
    register_strategy,
    strategy_name_of,
    validate_strategy_params,
)
from repro.search.threshold_schedule import ThresholdRung, ThresholdScheduleSearch


class TestRegistry:
    def test_all_six_registered(self):
        assert set(list_strategies()) >= {
            "random",
            "evolution",
            "combined",
            "separate",
            "phase",
            "threshold-schedule",
        }

    def test_get_and_reverse_lookup(self):
        assert get_strategy("evolution") is EvolutionSearch
        assert strategy_name_of(EvolutionSearch) == "evolution"
        assert strategy_name_of(SearchStrategy) is None

    def test_unknown_name_actionable(self):
        with pytest.raises(StrategyError, match="registered:"):
            get_strategy("simulated-annealing")

    def test_reregistering_same_class_is_noop(self):
        register_strategy(EvolutionSearch)  # no raise

    def test_name_collision_refused(self):
        class Impostor(SearchStrategy):
            name = "evolution"

        with pytest.raises(StrategyError, match="already registered"):
            register_strategy(Impostor)

    def test_validate_params(self):
        validate_strategy_params("evolution", {"population_size": 3})
        with pytest.raises(StrategyError, match="mutation_rate"):
            validate_strategy_params("evolution", {"mutation_rate": 0.1})
        with pytest.raises(StrategyError, match="mapping"):
            validate_strategy_params("evolution", ["population_size"])


class TestFromParams:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("random", {}),
            ("evolution", {"population_size": 5, "tournament_size": 2}),
            ("combined", {"hidden_size": 16}),
            ("separate", {"cnn_fraction": 0.5}),
            ("phase", {"cnn_phase_steps": 10, "hw_phase_steps": 5}),
            ("threshold-schedule", {"rungs": [[2.0, 2, 10]]}),
        ],
    )
    def test_each_strategy_constructible(self, name, params):
        strategy = build_strategy(name, 7, JointSearchSpace(), **params)
        assert strategy.name == name

    def test_seed_matches_direct_construction(self, micro4_bundle):
        space = JointSearchSpace(cell_encoding=micro4_bundle.cell_encoding)
        evaluator = make_bundle_evaluator(
            micro4_bundle, unconstrained(micro4_bundle.bounds)
        )
        direct = CombinedSearch(space, seed=11).run(evaluator, 15)
        via_registry = build_strategy("combined", 11, space).run(
            evaluator.with_reward(unconstrained(micro4_bundle.bounds)), 15
        )
        assert np.array_equal(
            direct.reward_trace(), via_registry.reward_trace(), equal_nan=True
        )

    def test_reinforce_config_dict_coerced(self):
        strategy = build_strategy(
            "combined", 0, reinforce_config={"learning_rate": 0.5}
        )
        assert strategy.trainer.config.learning_rate == 0.5

    def test_bad_reinforce_config_field(self):
        with pytest.raises(StrategyError, match="reinforce_config|learning"):
            build_strategy("combined", 0, reinforce_config={"lr": 0.5})

    def test_threshold_rung_coercion_forms(self):
        strategy = build_strategy(
            "threshold-schedule",
            0,
            rungs=[
                [2.0, 3, 12],
                {"threshold": 8.0, "target_valid_points": 3, "max_steps": 12},
                ThresholdRung(16.0, 3, 12),
            ],
        )
        assert [r.threshold for r in strategy.rungs] == [2.0, 8.0, 16.0]

    def test_threshold_bad_rung_shape(self):
        with pytest.raises(StrategyError, match="rung"):
            build_strategy("threshold-schedule", 0, rungs=[[2.0, 3]])

    def test_threshold_bounds_mapping(self):
        strategy = build_strategy(
            "threshold-schedule", 0, bounds={"accuracy": [10.0, 90.0]}
        )
        assert strategy.bounds.accuracy == (10.0, 90.0)
        assert isinstance(strategy, ThresholdScheduleSearch)

    def test_unknown_param_names_strategy(self):
        with pytest.raises(ValueError, match="'phase' got unknown parameter"):
            build_strategy("phase", 0, warmup=3)

    def test_bad_param_value_wrapped(self):
        with pytest.raises(StrategyError, match="cannot construct strategy 'evolution'"):
            build_strategy("evolution", 0, population_size=1)

    @pytest.mark.parametrize(
        "name, params, field",
        [
            ("combined", {"hidden_size": 0}, "hidden_size"),
            ("phase", {"embedding_size": 0}, "embedding_size"),
            ("separate", {"reinforce_config": {"grad_clip": -1}}, "grad_clip"),
        ],
    )
    def test_controller_sizes_and_clip_range_checked(self, name, params, field):
        with pytest.raises(StrategyError, match=rf"strategy '{name}'.*{field}"):
            build_strategy(name, 0, **params)
