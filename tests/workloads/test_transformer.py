"""The transformer workload: spec/encoding semantics, analytic
accuracy, and the end-to-end bert-u50 two-tier study."""

import json
import pickle

import numpy as np
import pytest

from repro.hw.gemm import CANONICAL_TRANSFORMERS, TRANSFORMER_PARAMETER_VALUES
from repro.nasbench.model_spec import InvalidSpecError
from repro.workloads import (
    TransformerEncoding,
    TransformerSpec,
    analytic_accuracy,
    compile_transformer_ops,
)


class TestTransformerSpec:
    def test_valid_spec_hash_and_params(self):
        spec = TransformerSpec(depth=4, heads=4, hidden=256, ffn_ratio=4,
                               seq_len=128)
        assert spec.valid
        assert spec.spec_hash() == "tfm-d4-h4-w256-f4-s128"
        assert spec.head_dim == 64
        assert spec.matrix.shape == (1, 5)

    def test_indivisible_heads_invalid_not_raising(self):
        spec = TransformerSpec(depth=4, heads=12, hidden=256, ffn_ratio=4,
                               seq_len=128)
        assert not spec.valid
        assert "divisible" in spec.invalid_reason
        with pytest.raises(InvalidSpecError):
            spec.spec_hash()
        with pytest.raises(InvalidSpecError):
            compile_transformer_ops(spec)

    def test_off_domain_value_invalid(self):
        spec = TransformerSpec(depth=3, heads=4, hidden=256, ffn_ratio=4,
                               seq_len=128)
        assert not spec.valid
        assert "depth" in spec.invalid_reason

    def test_dict_round_trip(self):
        spec = TransformerSpec(depth=12, heads=12, hidden=768, ffn_ratio=4,
                               seq_len=384)
        data = json.loads(json.dumps(spec.to_dict()))
        assert TransformerSpec.from_dict(data) == spec

    def test_remembered_hash_is_not_part_of_the_spec(self):
        params = dict(depth=4, heads=4, hidden=256, ffn_ratio=4, seq_len=128)
        hashed, fresh = TransformerSpec(**params), TransformerSpec(**params)
        expected = hashed.spec_hash()
        assert hashed == fresh
        assert hash(hashed) == hash(fresh)
        assert repr(hashed) == repr(fresh)
        assert hashed.to_dict() == fresh.to_dict()
        clone = pickle.loads(pickle.dumps(hashed))
        assert clone == hashed
        assert clone.spec_hash() == expected == fresh.spec_hash()


class TestTransformerEncoding:
    def test_space_size_and_vocab(self):
        encoding = TransformerEncoding()
        assert encoding.num_tokens == 5
        assert encoding.space_size == 2250

    def test_decode_rejects_out_of_range_actions(self):
        encoding = TransformerEncoding()
        with pytest.raises(ValueError, match="out of range"):
            encoding.decode([0, 0, 99, 0, 0])
        with pytest.raises(ValueError, match="expected 5"):
            encoding.decode([0, 0])

    def test_in_range_invalid_combo_decodes_invalid(self):
        encoding = TransformerEncoding()
        heads = TRANSFORMER_PARAMETER_VALUES["heads"].index(12)
        hidden = TRANSFORMER_PARAMETER_VALUES["hidden"].index(256)
        spec = encoding.decode([0, heads, hidden, 0, 0])
        assert not spec.valid

    def test_exhaustive_decode_matches_space_size(self):
        encoding = TransformerEncoding()
        valid = 0
        for flat in range(encoding.space_size):
            actions = []
            rest = flat
            for vocab in reversed(encoding.vocab_sizes):
                actions.append(rest % vocab)
                rest //= vocab
            spec = encoding.decode(list(reversed(actions)))
            valid += spec.valid
        # hidden % heads == 0 keeps 27 of the 30 (heads, hidden) pairs.
        assert valid == 27 * 5 * 3 * 5


class TestAnalyticAccuracy:
    def test_invalid_spec_scores_none(self):
        spec = TransformerSpec(depth=4, heads=12, hidden=256, ffn_ratio=4,
                               seq_len=128)
        assert analytic_accuracy(spec) is None

    def test_monotone_in_capacity(self):
        small = analytic_accuracy(
            TransformerSpec(depth=2, heads=2, hidden=128, ffn_ratio=2,
                            seq_len=128)
        )
        large = analytic_accuracy(
            TransformerSpec(depth=12, heads=12, hidden=768, ffn_ratio=4,
                            seq_len=128)
        )
        assert small < large

    def test_canonical_points_pinned(self):
        # Drift guard: these feed cached evaluations and goldens, so a
        # formula change must be a conscious decision.
        expected = {
            "bert-tiny": 69.85,
            "bert-mini": 78.04,
            "bert-small": 84.56,
            "bert-base": 88.45,
        }
        for name, params in CANONICAL_TRANSFORMERS:
            score = analytic_accuracy(TransformerSpec(**params))
            assert score == pytest.approx(expected[name], abs=0.01), name

    def test_bounded_by_floor_and_ceiling(self):
        encoding = TransformerEncoding()
        rng = np.random.default_rng(11)
        for _ in range(128):
            spec = encoding.decode(encoding.random_actions(rng))
            if not spec.valid:
                continue
            score = analytic_accuracy(spec)
            assert 62.0 < score < 91.0


class TestCompile:
    def test_gemm_count_scales_with_depth(self):
        shallow = compile_transformer_ops(
            TransformerSpec(depth=2, heads=2, hidden=128, ffn_ratio=4,
                            seq_len=128)
        )
        deep = compile_transformer_ops(
            TransformerSpec(depth=4, heads=2, hidden=128, ffn_ratio=4,
                            seq_len=128)
        )
        assert len(deep.ops) == 2 * len(shallow.ops)

    def test_memoized_on_parameters(self):
        a = compile_transformer_ops(
            TransformerSpec(depth=2, heads=2, hidden=128, ffn_ratio=4,
                            seq_len=128)
        )
        b = compile_transformer_ops(
            TransformerSpec(depth=2, heads=2, hidden=128, ffn_ratio=4,
                            seq_len=128)
        )
        assert a is b


class TestBertU50Study:
    def test_two_tier_study_end_to_end(self):
        from repro.core.study import outcome_summary, run_study
        from repro.experiments.presets import get_preset

        spec = get_preset("bert-u50").with_overrides(
            {
                "execution.num_steps": 5,
                "execution.num_repeats": 1,
                "execution.exact_fraction": 0.5,
            }
        )
        summary = outcome_summary(run_study(spec))
        (by_strategy,) = summary.values()
        assert set(by_strategy) == {"random", "evolution"}
        for strategy, stats in by_strategy.items():
            assert stats["repeats"] == 1, strategy

    def test_exact_and_two_tier_rewards_are_exact_scores(self):
        # The surrogate tier only filters: every archived/reported
        # reward must come from the exact platform, so a two-tier run
        # at exact_fraction=1.0 equals the exact-only run bit for bit.
        from repro.core.study import outcome_summary, run_study
        from repro.experiments.presets import get_preset

        overrides = {
            "execution.num_steps": 4,
            "execution.num_repeats": 1,
        }
        two_tier = get_preset("bert-u50").with_overrides(
            {**overrides, "execution.exact_fraction": 1.0}
        )
        exact = get_preset("bert-u50").with_overrides(
            {**overrides, "execution.surrogate": False}
        )
        assert outcome_summary(run_study(two_tier)) == outcome_summary(
            run_study(exact)
        )

    def test_ledgered_exact_study_matches_the_plain_run(self, tmp_path, monkeypatch):
        # Every checkpoint serializes the archive's TransformerSpec and
        # CharmConfig values into the ledger.
        from repro.core.evaluator import CodesignEvaluator
        from repro.core.study import outcome_summary, run_study
        from repro.experiments.presets import get_preset

        spec = get_preset("bert-u50").with_overrides(
            {
                "execution.num_steps": 12,
                "execution.num_repeats": 1,
                "execution.surrogate": False,
                "execution.checkpoint_every": 1,
            }
        )
        plain = outcome_summary(run_study(spec))
        ledger = tmp_path / "bert.ledger"
        assert outcome_summary(run_study(spec, ledger=ledger)) == plain

        def evaluate_batch(self, *args, **kwargs):
            raise AssertionError("a finished ledger re-evaluated a point")

        monkeypatch.setattr(CodesignEvaluator, "evaluate_batch", evaluate_batch)
        assert outcome_summary(run_study(spec, ledger=ledger)) == plain
