"""Tests for the crash-safe run ledger and its state serialization."""

import numpy as np
import pytest

from repro.accelerator.config import AcceleratorConfig
from repro.core.archive import SearchArchive
from repro.core.evaluator import build_evaluator
from repro.core.metrics import Metrics
from repro.core.scenarios import unconstrained
from repro.core.search_space import JointSearchSpace
from repro.nasbench.known_cells import resnet_cell
from repro.parallel import LedgerError, MemoryCheckpoint, RunLedger
from repro.parallel.ledger import decode_state, encode_state
from repro.search.random_search import RandomSearch


@pytest.fixture
def small_result(micro4_bundle):
    scenario = unconstrained(micro4_bundle.bounds)
    space = JointSearchSpace(cell_encoding=micro4_bundle.cell_encoding)
    evaluator = build_evaluator(
        "database", scenario, bundle=micro4_bundle, platform=micro4_bundle.platform
    )
    return RandomSearch(space, seed=11).run(evaluator, 15)


def roundtrip(obj):
    return decode_state(encode_state(obj))


class TestStateCodec:
    @pytest.mark.parametrize("dtype", ["float64", "float32", "int64", "int8"])
    def test_ndarray_bit_exact(self, rng, dtype):
        array = (rng.standard_normal((3, 5)) * 100).astype(dtype)
        back = roundtrip(array)
        assert back.dtype == array.dtype
        assert np.array_equal(back, array)

    def test_special_floats_survive(self):
        values = [0.1 + 0.2, float("nan"), float("inf"), float("-inf"), -0.0]
        back = roundtrip(values)
        assert np.array_equal(np.array(back), np.array(values), equal_nan=True)

    def test_rng_state_resumes_stream(self):
        gen = np.random.default_rng(123)
        gen.random(7)
        state = roundtrip(gen.bit_generator.state)
        expected = gen.random(5)
        fresh = np.random.default_rng(0)
        fresh.bit_generator.state = state
        assert np.array_equal(fresh.random(5), expected)

    def test_tuple_and_nonstring_dict_keys(self):
        obj = {2.0: ("a", 1), "nested": {5: [True, None]}}
        assert roundtrip(obj) == obj

    def test_spec_and_config_round_trip(self):
        spec = resnet_cell()
        config = AcceleratorConfig(pixel_par=64, pool_enable=True)
        back_spec, back_config = roundtrip((spec, config))
        assert back_spec.spec_hash() == spec.spec_hash()
        assert back_config == config

    def test_transformer_spec_and_charm_config_round_trip(self):
        from repro.hw.charm import CharmConfig
        from repro.workloads import TransformerSpec

        valid = TransformerSpec(depth=4, heads=4, hidden=256, ffn_ratio=4,
                                seq_len=128)
        invalid = TransformerSpec(depth=4, heads=12, hidden=256, ffn_ratio=4,
                                  seq_len=128)
        config = CharmConfig(tile_m=32, tile_n=64, tile_k=16, num_accels=2,
                             bitwidth=8)
        back_valid, back_invalid, back_config = roundtrip((valid, invalid, config))
        assert back_valid == valid and back_valid.spec_hash() == valid.spec_hash()
        assert back_invalid == invalid and not back_invalid.valid
        assert back_config == config

    def test_metrics_round_trip(self):
        metrics = Metrics(accuracy=93.21, latency_s=0.0421, area_mm2=186.0)
        assert roundtrip(metrics) == metrics

    def test_numpy_scalar_fields_survive(self):
        # A custom accuracy source may return numpy scalars; the codec
        # must coerce them instead of letting json.dumps raise.
        metrics = Metrics(
            accuracy=np.float32(93.25),
            latency_s=np.float64(0.0421),
            area_mm2=np.float64(186.0),
        )
        back = roundtrip(metrics)
        assert back.accuracy == float(np.float32(93.25))
        assert roundtrip(np.bool_(True)) is True
        assert roundtrip(np.int64(7)) == 7

    def test_archive_round_trip(self, small_result):
        back = roundtrip(small_result.archive)
        assert isinstance(back, SearchArchive)
        assert np.array_equal(back.reward_trace(), small_result.archive.reward_trace())
        for a, b in zip(back.entries, small_result.archive.entries):
            assert (a.step, a.phase, a.reward, a.feasible, a.valid) == (
                b.step, b.phase, b.reward, b.feasible, b.valid
            )
            assert a.config == b.config

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            encode_state(object())

    def test_literal_tag_key_round_trips(self):
        obj = {"__t__": "not-a-tag", "x": 1}
        assert roundtrip(obj) == obj


class TestRunLedger:
    def test_result_round_trip(self, tmp_path, small_result):
        path = tmp_path / "run.ledger"
        with RunLedger(path) as ledger:
            ledger.record_done("job", 0, small_result)
        with RunLedger(path) as warm:
            back = warm.load_result("job", 0)
        assert back is not None
        assert back.strategy == small_result.strategy
        assert back.scenario == small_result.scenario
        assert np.array_equal(back.reward_trace(), small_result.reward_trace())
        assert back.best.reward == small_result.best.reward
        assert back.best.spec.spec_hash() == small_result.best.spec.spec_hash()

    def test_missing_result_is_none(self, tmp_path):
        assert RunLedger(tmp_path / "x.ledger").load_result("job", 0) is None

    def test_begin_run_pins_configuration(self, tmp_path):
        config = {"num_steps": 10, "labels": ["a"]}
        path = tmp_path / "run.ledger"
        RunLedger(path).begin_run(config)
        RunLedger(path).begin_run(dict(config))  # identical: fine
        with pytest.raises(LedgerError):
            RunLedger(path).begin_run({"num_steps": 20, "labels": ["a"]})

    def test_checkpoint_round_trip(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.ledger")
        handle = ledger.checkpoint("job", 3)
        assert handle.load() is None
        handle.save({"strategy": {"name": "random"}, "steps_done": 12})
        saved = ledger.checkpoint("job", 3).load()
        assert saved == {"strategy": {"name": "random"}, "steps_done": 12}
        assert ledger.progress()["checkpointed_steps"] == 12

    def test_record_done_clears_checkpoint(self, tmp_path, small_result):
        ledger = RunLedger(tmp_path / "run.ledger")
        ledger.save_checkpoint("job", 0, {"steps_done": 5})
        ledger.record_done("job", 0, small_result)
        assert ledger.load_checkpoint("job", 0) is None
        assert ledger.progress() == {
            "done": 1,
            "checkpointed": 0,
            "checkpointed_steps": 0,
        }

    def test_in_memory_ledger_works_in_process(self, small_result):
        ledger = RunLedger()
        ledger.record_done("job", 1, small_result)
        assert ledger.load_result("job", 1) is not None


class TestMemoryCheckpoint:
    def test_save_takes_a_snapshot(self):
        checkpoint = MemoryCheckpoint()
        state = {"strategy": {"name": "random", "values": [1, 2]}, "steps_done": 2}
        checkpoint.save(state)
        state["strategy"]["values"].append(3)  # later mutation must not leak
        assert checkpoint.load()["strategy"]["values"] == [1, 2]
        assert checkpoint.saves == 1
