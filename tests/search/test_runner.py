"""Tests for the repeat-experiment harness."""

import numpy as np
import pytest

from repro.core.evaluator import build_evaluator
from repro.core.scenarios import unconstrained
from repro.core.search_space import JointSearchSpace
from repro.search.random_search import RandomSearch
from repro.search.runner import RepeatJob, mean_reward_trace, run_grid


@pytest.fixture
def job(micro4_bundle):
    scenario = unconstrained(micro4_bundle.bounds)
    space = JointSearchSpace(cell_encoding=micro4_bundle.cell_encoding)
    return RepeatJob(
        "unconstrained/random",
        strategy_factory=lambda seed: RandomSearch(space, seed=seed),
        evaluator_factory=lambda: build_evaluator(
            "database", scenario, bundle=micro4_bundle, platform=micro4_bundle.platform
        ),
    )


@pytest.fixture
def outcome(job):
    return run_grid([job], num_steps=30, num_repeats=3, master_seed=0)[job.label]


class TestRunRepeats:
    def test_result_count(self, outcome):
        assert len(outcome.results) == 3

    def test_repeats_use_different_seeds(self, outcome):
        traces = [r.reward_trace() for r in outcome.results]
        assert not np.array_equal(traces[0], traces[1])

    def test_best_entries_at_most_one_per_repeat(self, outcome):
        assert len(outcome.best_entries()) <= 3

    def test_hit_rate_in_unit_interval(self, outcome):
        assert 0.0 <= outcome.hit_rate() <= 1.0

    def test_mean_best_reward_finite(self, outcome):
        assert np.isfinite(outcome.mean_best_reward())

    def test_zero_repeats_rejected(self, job):
        with pytest.raises(ValueError):
            run_grid([job], num_steps=5, num_repeats=0)


class TestMeanTrace:
    def test_length_matches_steps(self, outcome):
        trace = mean_reward_trace(outcome, window=5)
        assert len(trace) == 30

    def test_smoothing_reduces_variance(self, outcome):
        raw = mean_reward_trace(outcome, window=1)
        smooth = mean_reward_trace(outcome, window=10)
        assert np.nanstd(np.diff(smooth)) <= np.nanstd(np.diff(raw)) + 1e-12

    def test_best_so_far_variant_monotone(self, outcome):
        trace = mean_reward_trace(outcome, window=1, best_so_far=True)
        valid = trace[~np.isnan(trace)]
        assert np.all(np.diff(valid) >= -1e-12)


class TestMeanTraceVectorization:
    """The cumulative-sum smoothing must match the historic O(n*window)
    nanmean loop on arbitrary NaN patterns and window sizes."""

    @staticmethod
    def reference_smooth(mean: np.ndarray, window: int) -> np.ndarray:
        smoothed = np.empty_like(mean)
        with np.errstate(invalid="ignore"):
            import warnings as _warnings

            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore", RuntimeWarning)
                for i in range(len(mean)):
                    lo = max(0, i - window + 1)
                    smoothed[i] = np.nanmean(mean[lo: i + 1])
        return smoothed

    @staticmethod
    def fake_outcome(trace: np.ndarray):
        from repro.core.archive import SearchArchive
        from repro.search.base import SearchResult
        from repro.search.runner import RepeatOutcome

        class _Result(SearchResult):
            def __init__(self, values):
                self.values = np.asarray(values, dtype=np.float64)

            def reward_trace(self):
                return self.values

            def best_so_far_trace(self):
                return self.values

        outcome = RepeatOutcome(strategy="t", scenario="t")
        outcome.results.append(_Result(trace))
        return outcome

    @pytest.mark.filterwarnings("ignore:Mean of empty slice:RuntimeWarning")
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_on_random_nan_traces(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(1, 120))
        trace = gen.standard_normal(n)
        # NaN prefixes (best-so-far style) and random interior NaNs.
        if gen.random() < 0.5:
            trace[: int(gen.integers(0, n))] = np.nan
        trace[gen.random(n) < 0.3] = np.nan
        window = int(gen.integers(1, n + 10))
        got = mean_reward_trace(self.fake_outcome(trace), window=window)
        want = self.reference_smooth(trace, window)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:Mean of empty slice:RuntimeWarning")
    def test_all_nan_trace_stays_nan(self):
        got = mean_reward_trace(self.fake_outcome(np.full(9, np.nan)), window=4)
        assert np.all(np.isnan(got))

    def test_large_window_equals_running_mean(self):
        trace = np.arange(1.0, 11.0)
        got = mean_reward_trace(self.fake_outcome(trace), window=100)
        want = np.cumsum(trace) / np.arange(1, 11)
        np.testing.assert_allclose(got, want, rtol=1e-12)
