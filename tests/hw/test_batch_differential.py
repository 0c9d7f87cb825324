"""Differential suite: batched platform queries == the scalar reference.

Every registered platform answers area, validity and latency both per
configuration and column-wise over a whole batch, and the platform
contract says the two agree bit for bit.  This file is the proof:

* for every registered platform with an enumerable space, sweep the
  ENTIRE ``config_space()`` asserting batch == scalar bit-identity for
  area, latency, and validity (spaces beyond 500 configs run in the
  slow tier; ``embedded-lite``'s 288 keep full-space coverage in
  tier 1);
* the ``AcceleratorSpace`` mixed-radix index codec;
* hypothesis property tests over random index subsets and random
  ``dac2020-scaled`` parameterizations;
* pinned hex-encoded slices per shipped platform, which catch model
  drift that moves the batch and scalar paths together.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hw.tensorized as tensorized_mod
from repro.hw import build_platform, list_platforms
from repro.hw.tensorized import TENSORIZE_MAX_CONFIGS, enumerable
from repro.nasbench.compile import compile_cell_ops
from repro.nasbench.known_cells import googlenet_cell, resnet_cell
from repro.nasbench.skeleton import CIFAR10_SKELETON

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

#: Full-space sweeps beyond this many configs run in the slow tier;
#: embedded-lite (288) keeps entire-space coverage in every CI run.
FAST_SWEEP_LIMIT = 500


def _platform_params():
    """Every enumerable registered platform, slow-marked when large.

    Non-enumerable platforms (charm-u50's 393k-config tile space) are
    too large to sweep; their batch==scalar contract is covered by the
    bounded probe suite in ``test_platforms.py`` and the golden slices.
    """
    params = []
    for name in list_platforms():
        platform = build_platform(name)
        if not enumerable(platform):
            continue
        size = platform.config_space().size
        marks = [pytest.mark.slow] if size > FAST_SWEEP_LIMIT else []
        params.append(pytest.param(name, marks=marks, id=name))
    return params


@pytest.fixture(scope="module")
def platforms():
    return {name: build_platform(name) for name in list_platforms()}


@pytest.fixture(scope="module")
def resnet_ir():
    return compile_cell_ops(resnet_cell(), CIFAR10_SKELETON)


class TestEnumerability:
    def test_shipped_platform_enumerability_split(self, platforms):
        # charm-u50's tile space deliberately exceeds the enumeration
        # cap (it exists to exercise sampled surrogate fits); every
        # other shipped platform must stay enumerable.
        oversized = {"charm-u50", "surrogate:charm-u50"}
        for name, platform in platforms.items():
            if name in oversized:
                assert not enumerable(platform), name
                assert platform.config_space().size > TENSORIZE_MAX_CONFIGS
            else:
                assert enumerable(platform), name

    def test_cap_decides_enumerability(self, platforms, monkeypatch):
        monkeypatch.setattr(tensorized_mod, "TENSORIZE_MAX_CONFIGS", 1)
        assert not enumerable(platforms["embedded-lite"])


class TestFullSpaceBitIdentity:
    """batch(columns())[i] == scalar(config_at(i)) over the ENTIRE space."""

    @pytest.mark.parametrize("name", _platform_params())
    def test_area_full_space(self, platforms, name):
        platform = platforms[name]
        space = platform.config_space()
        scalar = np.array(
            [platform.area_mm2(space.config_at(i)) for i in range(space.size)]
        )
        assert np.array_equal(scalar, platform.batch_area_mm2(space.columns()))

    @pytest.mark.parametrize("name", _platform_params())
    def test_validity_full_space(self, platforms, name):
        platform = platforms[name]
        space = platform.config_space()
        scalar = np.array(
            [platform.config_valid(space.config_at(i)) for i in range(space.size)]
        )
        batch = np.asarray(platform.batch_config_valid(space.columns()), dtype=bool)
        assert np.array_equal(scalar, batch)

    @pytest.mark.parametrize("name", _platform_params())
    def test_latency_full_space(self, platforms, name, resnet_ir):
        platform = platforms[name]
        space = platform.config_space()
        batch = platform.batch_network_latency_s(resnet_ir, space.columns())
        scalar = np.array(
            [
                platform.network_latency_s(resnet_ir, space.config_at(i))
                for i in range(space.size)
            ]
        )
        assert np.array_equal(scalar, batch)


class TestIndexCodec:
    @pytest.mark.parametrize("name", _platform_params())
    def test_index_roundtrip_full_space(self, platforms, name):
        space = platforms[name].config_space()
        for i in range(space.size):
            assert space.index_of(space.config_at(i)) == i

    def test_config_at_interns(self, platforms):
        space = platforms["dac2020"].config_space()
        assert space.config_at(17) is space.config_at(17)

    def test_index_of_actions_matches_decode(self, platforms, rng):
        for platform in platforms.values():
            space = platform.config_space()
            for _ in range(50):
                actions = [int(rng.integers(0, v)) for v in space.vocab_sizes]
                index = space.index_of_actions(actions)
                assert space.config_at(index) == space.decode(actions)
                assert index == space.index_of(space.decode(actions))

    def test_index_of_actions_validates_like_decode(self, platforms):
        space = platforms["dac2020"].config_space()
        with pytest.raises(ValueError, match="expected .* actions"):
            space.index_of_actions([0])
        bad = [0] * space.num_tokens
        bad[0] = space.vocab_sizes[0]
        with pytest.raises(ValueError, match="out of range"):
            space.index_of_actions(bad)

    def test_index_of_non_interned_config(self, platforms):
        space = platforms["embedded-lite"].config_space()
        interned = space.config_at(5)
        clone = type(interned)(**interned.to_dict())
        assert clone is not interned
        assert space.index_of(clone) == 5


class TestHypothesisDifferential:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_index_subsets(self, platforms, data):
        enumerable_names = sorted(
            name for name, platform in platforms.items() if enumerable(platform)
        )
        name = data.draw(st.sampled_from(enumerable_names))
        platform = platforms[name]
        space = platform.config_space()
        indices = data.draw(
            st.lists(
                st.integers(0, space.size - 1), min_size=1, max_size=16
            )
        )
        spec = data.draw(st.sampled_from((resnet_cell(), googlenet_cell())))
        ir = compile_cell_ops(spec, CIFAR10_SKELETON)
        cols = space.columns_at(np.asarray(indices, dtype=np.int64))
        area = platform.batch_area_mm2(cols)
        latency = platform.batch_network_latency_s(ir, cols)
        valid = platform.batch_config_valid(cols)
        for pos, i in enumerate(indices):
            config = space.config_at(i)
            assert area[pos] == platform.area_mm2(config)
            assert latency[pos] == platform.network_latency_s(ir, config)
            assert valid[pos] == platform.config_valid(config)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_scaled_platform_params(self, data, resnet_ir):
        """batch == scalar across the parametric family."""
        params = {
            "clock_mhz": data.draw(
                st.floats(50.0, 600.0, allow_nan=False, allow_infinity=False)
            ),
            "axi_clock_mhz": data.draw(
                st.floats(100.0, 500.0, allow_nan=False, allow_infinity=False)
            ),
            "compute_efficiency": data.draw(st.floats(0.1, 1.0)),
            "mem_efficiency": data.draw(st.floats(0.1, 1.0)),
            "area_scale": data.draw(st.floats(0.25, 4.0)),
            "max_pixel_par": data.draw(st.sampled_from([None, 8, 16])),
        }
        platform = build_platform("dac2020-scaled", params)
        space = platform.config_space()
        cols = space.columns()
        area = platform.batch_area_mm2(cols)
        latency = platform.batch_network_latency_s(resnet_ir, cols)
        rng = np.random.default_rng(0)
        for i in rng.integers(0, space.size, size=12):
            config = space.config_at(int(i))
            assert area[i] == platform.area_mm2(config)
            assert latency[i] == platform.network_latency_s(resnet_ir, config)


class TestGoldenTensorSlices:
    """Pinned hex-encoded batch slices per shipped platform.

    The batch==scalar differential tests above prove the two paths
    agree — but cannot see *lockstep drift*, where a hardware-model
    change moves both paths together.  These goldens pin absolute
    float64 bit patterns at 16 evenly-spaced indices so any model
    change fails loudly (regenerate deliberately with
    ``tests/data/generate_tensorized_goldens.py``).
    """

    @pytest.fixture(scope="class")
    def goldens(self):
        return json.loads((DATA_DIR / "tensorized_goldens.json").read_text())

    def test_covers_every_registered_platform(self, goldens):
        # surrogate:* platforms are derived from the pinned base models;
        # their own drift guard is the artifact probe contract
        # (tests/hw/test_hw_surrogate.py), not golden slices.
        pinned = {entry["platform"] for entry in goldens.values()}
        exact = {
            name for name in list_platforms() if not name.startswith("surrogate:")
        }
        assert pinned == exact

    def test_slices_match_goldens(self, goldens, resnet_ir):
        for label, entry in goldens.items():
            platform = build_platform(entry["platform"], entry["params"] or None)
            assert platform.cache_namespace() == entry["namespace"], label
            space = platform.config_space()
            assert space.size == entry["size"], label
            assert enumerable(platform) == entry["tensorized"], label
            cols = space.columns_at(np.asarray(entry["indices"], dtype=np.int64))
            area = platform.batch_area_mm2(cols)
            valid = platform.batch_config_valid(cols)
            latency = platform.batch_network_latency_s(resnet_ir, cols)
            for pos, index in enumerate(entry["indices"]):
                assert (
                    float(area[pos]).hex() == entry["area_hex"][pos]
                ), f"{label}: area drift at index {index}"
                assert bool(valid[pos]) == entry["valid"][pos], (
                    f"{label}: validity drift at index {index}"
                )
                assert (
                    float(latency[pos]).hex() == entry["latency_hex"][pos]
                ), f"{label}: latency drift at index {index}"
