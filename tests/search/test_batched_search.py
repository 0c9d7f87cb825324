"""Tests for the batched ask/tell driver and per-strategy batch semantics."""

import numpy as np
import pytest

from repro.core.evaluator import build_evaluator
from repro.core.scenarios import unconstrained
from repro.core.search_space import JointSearchSpace
from repro.search.base import Proposal, SearchStrategy
from repro.search.combined import CombinedSearch
from repro.search.evolution import EvolutionSearch
from repro.search.phase import PhaseSearch
from repro.search.random_search import RandomSearch
from repro.search.runner import RepeatJob, run_grid
from repro.search.separate import SeparateSearch
from repro.search.threshold_schedule import ThresholdRung, ThresholdScheduleSearch


@pytest.fixture
def space(micro4_bundle):
    return JointSearchSpace(cell_encoding=micro4_bundle.cell_encoding)


@pytest.fixture
def evaluator(micro4_bundle):
    return build_evaluator(
        "database",
        unconstrained(micro4_bundle.bounds),
        bundle=micro4_bundle,
        platform=micro4_bundle.platform,
    )


class TestDriver:
    def test_rejects_bad_batch_size(self, space, evaluator):
        with pytest.raises(ValueError):
            RandomSearch(space, seed=0).run(evaluator, 10, batch_size=0)

    @pytest.mark.parametrize("batch_size", [1, 4, 7, 32])
    def test_step_budget_exact_for_any_batch_size(
        self, space, evaluator, batch_size
    ):
        result = RandomSearch(space, seed=0).run(evaluator, 50, batch_size=batch_size)
        assert len(result.archive) == 50

    def test_ask_counts_capped_by_remaining(self, space, evaluator):
        asked = []

        class Probe(RandomSearch):
            def ask(self, n):
                asked.append(n)
                return super().ask(n)

        Probe(space, seed=0).run(evaluator, 10, batch_size=4)
        assert asked == [4, 4, 2]

    def test_empty_ask_ends_search(self, space, evaluator):
        class Quits(SearchStrategy):
            name = "quits"

            def ask(self, n):
                if len(self.archive) >= 6:
                    return []
                actions = self.search_space.random_actions(self.rng)
                spec, config = self.search_space.decode(actions)
                return [Proposal(spec=spec, config=config)]

        result = Quits(space, seed=0).run(evaluator, 100, batch_size=3)
        assert len(result.archive) == 6

    def test_tell_that_archives_is_refused(self, space, evaluator):
        # The driver records every result; a tell() that records them
        # too would archive each one twice.
        class ArchivesInTell(RandomSearch):
            name = "archives-in-tell"

            def tell(self, proposals, results, indices=None):
                for proposal, result in zip(proposals, results):
                    self.archive.record(result, phase=proposal.phase)

        with pytest.raises(RuntimeError, match="'archives-in-tell'"):
            ArchivesInTell(space, seed=0).run(evaluator, 4, batch_size=2)

    def test_each_batch_is_one_evaluate_batch_call(self, space, evaluator):
        calls = []
        inner = evaluator.evaluate_batch

        def spy(pairs):
            calls.append(len(pairs))
            return inner(pairs)

        evaluator.evaluate_batch = spy
        RandomSearch(space, seed=0).run(evaluator, 12, batch_size=5)
        assert calls == [5, 5, 2]

    def test_overlong_ask_is_an_error(self, space, evaluator):
        class TooMany(RandomSearch):
            def ask(self, n):
                return super().ask(n + 1)

        with pytest.raises(RuntimeError):
            TooMany(space, seed=0).run(evaluator, 4, batch_size=2)


class TestRandomBatchSemantics:
    def test_any_batch_size_is_bit_identical(self, space, micro4_bundle):
        """Random proposals ignore results: batching cannot change them."""
        scenario = unconstrained(micro4_bundle.bounds)
        traces = []
        for batch_size in (1, 7, 16):
            ev = build_evaluator(
                "database",
                scenario,
                bundle=micro4_bundle,
                platform=micro4_bundle.platform,
            )
            result = RandomSearch(space, seed=5).run(ev, 60, batch_size=batch_size)
            traces.append(result.reward_trace())
        assert np.array_equal(traces[0], traces[1], equal_nan=True)
        assert np.array_equal(traces[0], traces[2], equal_nan=True)


class TestEvolutionBatchSemantics:
    def test_generation_batches_keep_population_size(self, space, evaluator):
        strategy = EvolutionSearch(space, seed=0, population_size=8, tournament_size=3)
        strategy.run(evaluator, 40, batch_size=6)
        assert len(strategy.population) == 8

    def test_warmup_never_mixes_with_evolution(self, space, evaluator):
        strategy = EvolutionSearch(space, seed=0, population_size=8, tournament_size=3)
        result = strategy.run(evaluator, 30, batch_size=6)
        phases = [e.phase for e in result.archive.entries]
        assert phases[:8] == ["init"] * 8
        assert set(phases[8:]) == {"evolve"}

    def test_batched_run_records_every_step(self, space, evaluator):
        strategy = EvolutionSearch(space, seed=1, population_size=6, tournament_size=2)
        result = strategy.run(evaluator, 25, batch_size=4)
        assert len(result.archive) == 25


class TestReinforceBatchSemantics:
    def test_combined_one_update_per_batch(self, space, evaluator):
        strategy = CombinedSearch(space, seed=0)
        strategy.run(evaluator, 24, batch_size=8)
        assert strategy.trainer.num_updates == 3

    def test_combined_batched_still_learns_archive(self, space, evaluator):
        result = CombinedSearch(space, seed=0).run(evaluator, 32, batch_size=8)
        assert len(result.archive) == 32
        assert result.best is not None

    def test_phase_batches_never_cross_phase_boundaries(self, space, evaluator):
        strategy = PhaseSearch(space, seed=0, cnn_phase_steps=10, hw_phase_steps=5)
        result = strategy.run(evaluator, 40, batch_size=8)
        phases = [e.phase for e in result.archive.entries]
        # Contiguous runs per phase label, each exactly the phase budget.
        runs = []
        for p in phases:
            if runs and runs[-1][0] == p:
                runs[-1][1] += 1
            else:
                runs.append([p, 1])
        for label, length in runs[:-1]:
            assert length == (10 if label.startswith("cnn") else 5), runs

    def test_separate_stage_split_respected_when_batched(self, space, evaluator):
        strategy = SeparateSearch(space, seed=0, cnn_fraction=0.6)
        result = strategy.run(evaluator, 40, batch_size=7)
        cnn = [e for e in result.archive.entries if e.phase == "cnn-only"]
        hw = [e for e in result.archive.entries if e.phase == "hw-only"]
        assert len(cnn) == 24
        assert len(hw) == 16
        best_spec = result.extras["stage1_best"]
        assert all(e.spec.spec_hash() == best_spec.spec_hash() for e in hw if e.valid)

    def test_threshold_schedule_batched_matches_serial_at_batch1(
        self, space, micro4_bundle
    ):
        scenario_bounds = micro4_bundle.bounds
        rungs = [ThresholdRung(2.0, 5, 20), ThresholdRung(8.0, 5, 20)]

        def run(batch_size):
            ev = build_evaluator(
                "database",
                unconstrained(scenario_bounds),
                bundle=micro4_bundle,
                platform=micro4_bundle.platform,
            )
            strategy = ThresholdScheduleSearch(
                space, seed=0, rungs=rungs, bounds=scenario_bounds
            )
            return strategy.run(ev, num_steps=30, batch_size=batch_size)

        a, b = run(1), run(1)
        assert np.array_equal(a.reward_trace(), b.reward_trace(), equal_nan=True)
        batched = run(4)  # documented: may overshoot targets per batch
        assert len(batched.archive) >= min(len(a.archive), 1)


class TestRunnerBatchPlumbing:
    @pytest.fixture
    def job(self, space, micro4_bundle):
        scenario = unconstrained(micro4_bundle.bounds)
        return RepeatJob(
            "unconstrained/random",
            strategy_factory=lambda seed: RandomSearch(space, seed=seed),
            evaluator_factory=lambda: build_evaluator(
                "database", scenario, bundle=micro4_bundle, platform=micro4_bundle.platform
            ),
        )

    def test_run_grid_accepts_batch_size(self, job):
        outcome = run_grid([job], num_steps=20, num_repeats=2, batch_size=8)[job.label]
        assert all(len(r.archive) == 20 for r in outcome.results)

    def test_random_repeats_identical_across_batch_sizes(self, job):
        def run(batch_size):
            grid = run_grid([job], num_steps=15, num_repeats=2, batch_size=batch_size)
            return grid[job.label]

        a, b = run(1), run(5)
        for ra, rb in zip(a.results, b.results):
            assert np.array_equal(ra.reward_trace(), rb.reward_trace(), equal_nan=True)
