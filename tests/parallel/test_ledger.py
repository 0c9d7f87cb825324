"""Tests for the crash-safe run ledger and its state serialization."""

import json
import math
import sqlite3
from collections import Counter
from contextlib import closing
from dataclasses import replace

import numpy as np
import pytest

from repro.accelerator.config import AcceleratorConfig
from repro.core.archive import ArchiveEntry, SearchArchive
from repro.core.evaluator import build_evaluator
from repro.core.metrics import Metrics
from repro.core.scenarios import unconstrained
from repro.core.search_space import JointSearchSpace
from repro.nasbench.known_cells import resnet_cell
from repro.nasbench.model_spec import ModelSpec
from repro.nasbench.ops import INTERIOR_OPS
from repro.parallel import LedgerError, MemoryCheckpoint, RunLedger
from repro.parallel import ledger as ledger_module
from repro.parallel.ledger import (
    LedgerCheckpoint,
    _dumps,
    _entry_row,
    _loads,
    decode_state,
    encode_state,
)
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

    def test_object_arrays_rejected(self):
        with pytest.raises(TypeError, match="object array"):
            _dumps({"a": np.array([1, "x"], dtype=object)})


def snapshot_arrays(rng) -> dict:
    """Arrays of every layout a snapshot must carry bit for bit."""
    base = rng.standard_normal((4, 6))
    return {
        "zero_d": np.array(2.5),
        "empty": np.zeros((0, 3), dtype=np.int32),
        "strided": base[::2, 1::2],
        "fortran": np.asfortranarray(base),
        "big_endian": base.astype(">f8"),
        "bools": base > 0,
    }


def assert_same_arrays(got, expected) -> None:
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestSnapshotCodec:
    """``_dumps``/``_loads``: a tagged JSON skeleton, then raw array bytes."""

    def test_arrays_of_every_layout_round_trip(self, rng):
        arrays = snapshot_arrays(rng)
        back = _loads(_dumps(arrays))
        assert back.keys() == arrays.keys()
        for name, array in arrays.items():
            assert_same_arrays(back[name], array)

    def test_arrays_nested_in_tuples_and_nonstring_keys(self, rng):
        arrays = snapshot_arrays(rng)
        state = {
            "pair": (arrays["strided"], [arrays["zero_d"], 3]),
            "by_rung": {2.0: arrays["big_endian"], 8.0: (arrays["empty"],)},
        }
        back = _loads(_dumps(state))
        assert isinstance(back["pair"], tuple) and back["pair"][1][1] == 3
        assert_same_arrays(back["pair"][0], arrays["strided"])
        assert_same_arrays(back["pair"][1][0], arrays["zero_d"])
        assert sorted(back["by_rung"]) == [2.0, 8.0]
        assert_same_arrays(back["by_rung"][2.0], arrays["big_endian"])
        assert_same_arrays(back["by_rung"][8.0][0], arrays["empty"])

    def test_loaded_arrays_are_writable_copies(self, rng):
        # Adam updates its moments in place after a resume.
        blob = _dumps(snapshot_arrays(rng))
        raw = np.frombuffer(blob, dtype=np.uint8)
        for name, array in _loads(blob).items():
            assert array.flags.writeable and array.flags.owndata, name
            assert not np.shares_memory(array, raw), name

    def test_skeleton_carries_no_array_bytes(self, rng):
        weights = rng.standard_normal(1000)
        blob = _dumps({"weights": weights, "steps_done": 3})
        assert len(blob) < weights.nbytes + 200
        assert weights.tobytes() in blob

    def test_snapshot_decodes_to_the_tagged_json_state(self, rng, small_result):
        # What the ledger stored before version 3, and the goldens hash.
        state = {"arrays": snapshot_arrays(rng), "archive": small_result.archive,
                 "result": small_result, "rng": np.random.default_rng(5)
                 .bit_generator.state}
        text = json.dumps(encode_state(state), separators=(",", ":"))
        back = _loads(_dumps(state))
        assert json.dumps(encode_state(back), separators=(",", ":")) == text


def row_text(entry) -> str:
    """An archive row's text as every version has stored it."""
    return json.dumps(encode_state(entry), separators=(",", ":"))


def assert_row_pinned(entry) -> None:
    label, repeat, step, reward, feasible, text = _entry_row(("job", 1), 9, entry)
    tagged = encode_state(entry)
    assert (label, repeat, step) == ("job", 1, 9)
    assert text == row_text(entry)
    for column, value in ((reward, tagged["reward"]), (feasible, tagged["feasible"])):
        assert type(column) is type(value)
        assert column == value or (math.isnan(column) and math.isnan(value))


class TestArchiveRowText:
    """The row builder writes exactly the tagged JSON of its entry."""

    @pytest.fixture
    def entry(self, small_result):
        return small_result.archive.entries[0]

    def test_search_entries(self, small_result):
        for entry in small_result.archive.entries:
            assert_row_pinned(entry)

    def test_missing_metrics_and_accuracy(self, entry):
        assert_row_pinned(replace(entry, metrics=None, reward=None))
        assert_row_pinned(replace(entry, metrics=replace(entry.metrics, accuracy=None)))

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 5e-324]
    )
    def test_special_floats(self, entry, value):
        # Latency and area must be positive, which NaN and +inf pass.
        positive = value if not value <= 0 else 1.5
        metrics = Metrics(accuracy=value, latency_s=positive, area_mm2=positive)
        assert_row_pinned(replace(entry, metrics=metrics, reward=value))

    @pytest.mark.parametrize(
        "value", [np.float64(2.5), np.bool_(True), np.int64(3)],
        ids=["float64", "bool_", "int64"],
    )
    @pytest.mark.parametrize(
        "field",
        ["step", "accuracy", "latency_s", "area_mm2", "reward", "feasible", "valid"],
    )
    def test_numpy_scalar_in_each_field(self, entry, field, value):
        # NumPy 2 reprs these as np.float64(2.5): a row must not.
        if field in ("accuracy", "latency_s", "area_mm2"):
            entry = replace(entry, metrics=replace(entry.metrics, **{field: value}))
        else:
            entry = replace(entry, **{field: value})
        assert_row_pinned(entry)

    def test_transformer_and_charm_entries(self, entry):
        from repro.hw.charm import CharmConfig
        from repro.workloads import TransformerSpec

        spec = TransformerSpec(depth=4, heads=4, hidden=256, ffn_ratio=4, seq_len=128)
        config = CharmConfig(tile_m=32, tile_n=64, tile_k=16, num_accels=2,
                             bitwidth=8)
        assert_row_pinned(replace(entry, spec=spec, config=config))
        assert_row_pinned(replace(entry, spec=spec, config=config))  # remembered

    @pytest.mark.parametrize("phase", ["cnn-\u00e9t\u00e9", 'say "hw"\n', "", None])
    def test_unusual_phase(self, entry, phase):
        assert_row_pinned(replace(entry, phase=phase))

    def test_texts_are_remembered_per_object(self, entry):
        # Specs that prune to the same cell compare equal but keep
        # different original matrices; each row carries its own.
        conv, other = INTERIOR_OPS[:2]
        cell = ModelSpec(np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
                         ("input", conv, "output"))
        dangling = ModelSpec(
            np.array([[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]),
            ("input", conv, other, "output"),
        )
        assert cell == dangling and cell.to_dict() != dangling.to_dict()
        for spec in (cell, dangling, cell, dangling):
            assert_row_pinned(replace(entry, spec=spec))


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

        ((blob, length),) = ledger_sql(path, "SELECT state, archive_len FROM checkpoints")
        assert length == 15 and b'"entry"' not in blob
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
        ((blob, length),) = ledger_sql(path, "SELECT result, archive_len FROM tasks")
        assert length == 15 and b'"entry"' not in blob
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
        # recording the result builds no entry's row again.
        encoded = Counter()
        build_row = ledger_module._entry_row

        def counting(key, step, entry):
            assert isinstance(entry, ArchiveEntry)
            encoded[entry.step] += 1
            return build_row(key, step, entry)

        monkeypatch.setattr(ledger_module, "_entry_row", counting)
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
        moments = np.arange(4.0)
        state = {
            "strategy": {"name": "random", "values": [1, 2], "moments": moments},
            "steps_done": 2,
        }
        checkpoint.save(state)
        state["strategy"]["values"].append(3)  # later mutation must not leak
        moments *= 10  # nor an in-place update of a saved array
        loaded = checkpoint.load()
        assert loaded["strategy"]["values"] == [1, 2]
        assert np.array_equal(loaded["strategy"]["moments"], np.arange(4.0))
        loaded["strategy"]["moments"] += 1  # nor a mutation of a loaded one
        assert np.array_equal(checkpoint.load()["strategy"]["moments"], np.arange(4.0))
        assert checkpoint.saves == 1

