"""Tests for the crash-safe run ledger and its state serialization."""

import sqlite3
from collections import Counter
from contextlib import closing

import numpy as np
import pytest

from repro.accelerator.config import AcceleratorConfig
from repro.core.archive import ArchiveEntry, SearchArchive
from repro.core.evaluator import build_evaluator
from repro.core.metrics import Metrics
from repro.core.scenarios import unconstrained
from repro.core.search_space import JointSearchSpace
from repro.nasbench.known_cells import resnet_cell
from repro.parallel import LedgerError, MemoryCheckpoint, RunLedger
from repro.parallel import ledger as ledger_module
from repro.parallel.ledger import LedgerCheckpoint, decode_state, encode_state
from repro.search.combined import CombinedSearch
from repro.search.random_search import RandomSearch
from repro.search.runner import RepeatJob, run_grid


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

    def test_save_after_done_writes_nothing(self, tmp_path, small_result):
        # A cluster straggler keeps saving after the new holder recorded
        # the task; a finished task must not count as checkpointed.
        ledger = RunLedger(tmp_path / "run.ledger")
        ledger.record_done("job", 0, small_result)
        state = {
            "strategy": {"name": "random", "archive": small_result.archive},
            "steps_done": 15,
        }
        ledger.save_checkpoint("job", 0, state)
        assert ledger.load_checkpoint("job", 0) is None
        assert ledger.progress()["checkpointed"] == 0
        assert ledger.task_statuses()["job"]["checkpointed"] == 0


def entries_equal(got: SearchArchive, expected: SearchArchive) -> bool:
    return len(got) == len(expected) and all(
        (a.step, a.spec.to_dict(), a.config, a.metrics, a.reward, a.feasible,
         a.valid, a.phase)
        == (b.step, b.spec.to_dict(), b.config, b.metrics, b.reward, b.feasible,
            b.valid, b.phase)
        for a, b in zip(got.entries, expected.entries)
    )


def ledger_sql(path, sql, params=()):
    with closing(sqlite3.connect(path)) as conn:
        return conn.execute(sql, params).fetchall()


class TestArchiveRows:
    def test_checkpoint_archive_lives_in_rows(self, tmp_path, small_result):
        path = tmp_path / "run.ledger"
        archive = small_result.archive
        state = {"strategy": {"name": "random", "archive": archive}, "steps_done": 15}
        RunLedger(path).save_checkpoint("job", 0, state)

        ((text, length),) = ledger_sql(path, "SELECT state, archive_len FROM checkpoints")
        assert length == 15 and '"entry"' not in text
        rows = ledger_sql(
            path, "SELECT step, reward, feasible FROM archive_rows ORDER BY step"
        )
        assert rows == [
            (e.step, e.reward, int(e.feasible)) for e in archive.entries
        ]
        loaded = RunLedger(path).load_checkpoint("job", 0)
        assert loaded["steps_done"] == 15
        assert entries_equal(loaded["strategy"]["archive"], archive)

    def test_result_archive_lives_in_rows(self, tmp_path, small_result):
        path = tmp_path / "run.ledger"
        RunLedger(path).record_done("job", 0, small_result)
        ((text, length),) = ledger_sql(path, "SELECT result, archive_len FROM tasks")
        assert length == 15 and '"entry"' not in text
        assert entries_equal(
            RunLedger(path).load_result("job", 0).archive, small_result.archive
        )

    def test_a_load_reads_only_the_snapshots_rows(self, tmp_path, small_result):
        # A straggler's older snapshot may land after a newer one wrote
        # more rows; the load must stop at the snapshot's own length.
        path = tmp_path / "run.ledger"
        entries = small_result.archive.entries
        for length in (12, 5):
            state = {
                "strategy": {"name": "random",
                             "archive": SearchArchive(entries=entries[:length])},
                "steps_done": length,
            }
            RunLedger(path).save_checkpoint("job", 0, state)
        loaded = RunLedger(path).load_checkpoint("job", 0)
        assert entries_equal(
            loaded["strategy"]["archive"], SearchArchive(entries=entries[:5])
        )
        assert ledger_sql(path, "SELECT COUNT(*) FROM archive_rows") == [(12,)]

    def test_missing_rows_are_refused(self, tmp_path, small_result):
        path = tmp_path / "run.ledger"
        RunLedger(path).record_done("job", 0, small_result)
        with closing(sqlite3.connect(path)) as conn:
            conn.execute("DELETE FROM archive_rows WHERE step=3")
            conn.commit()
        with pytest.raises(LedgerError, match="needs 15 archive rows"):
            RunLedger(path).load_result("job", 0)

    def test_each_entry_is_encoded_once(self, tmp_path, micro4_bundle, monkeypatch):
        # A batch-1 ledgered run: each save writes only the new entries
        # and a snapshot whose size does not grow with the archive, and
        # recording the result encodes no entry again.
        encoded = Counter()
        encode = ledger_module.encode_state

        def counting(obj):
            if isinstance(obj, ArchiveEntry):
                encoded[obj.step] += 1
            return encode(obj)

        monkeypatch.setattr(ledger_module, "encode_state", counting)
        path = tmp_path / "run.ledger"
        snapshot_lengths = []
        save = LedgerCheckpoint.save

        def measured_save(self, state):
            save(self, state)
            (length,) = ledger_sql(
                path, "SELECT length(state) FROM checkpoints"
                " WHERE label=? AND repeat=?", (self.label, self.repeat)
            )[0]
            snapshot_lengths.append(length)

        monkeypatch.setattr(LedgerCheckpoint, "save", measured_save)
        space = JointSearchSpace(cell_encoding=micro4_bundle.cell_encoding)
        job = RepeatJob(
            label="combined",
            strategy_factory=lambda seed: CombinedSearch(space, seed=seed),
            evaluator_factory=lambda: build_evaluator(
                "database", unconstrained(micro4_bundle.bounds),
                bundle=micro4_bundle, platform=micro4_bundle.platform,
            ),
        )
        steps = 60
        outcome = run_grid(
            [job], num_steps=steps, num_repeats=1, checkpoint_every=5, ledger=path
        )
        assert len(snapshot_lengths) == steps // 5
        assert encoded == Counter(range(steps))
        assert snapshot_lengths[-1] <= 1.01 * snapshot_lengths[0]
        assert entries_equal(
            RunLedger(path).load_result("combined", 0).archive,
            outcome["combined"].results[0].archive,
        )


class TestMemoryCheckpoint:
    def test_save_takes_a_snapshot(self):
        checkpoint = MemoryCheckpoint()
        state = {"strategy": {"name": "random", "values": [1, 2]}, "steps_done": 2}
        checkpoint.save(state)
        state["strategy"]["values"].append(3)  # later mutation must not leak
        assert checkpoint.load()["strategy"]["values"] == [1, 2]
        assert checkpoint.saves == 1
