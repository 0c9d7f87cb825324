"""Tests for the learned hardware-cost surrogates (repro.hw.surrogate).

Covers the JSON fit artifact's cache contract (round-trip, drift
refusal, corruption), and pins the platform
contract the search stack depends on: every registered platform's twin
answers batch == scalar bit for bit, a cache namespace that can never
collide with exact rows, and an error budget the shipped platforms
actually clear.
"""

import json

import numpy as np
import pytest

from repro.hw import (
    HardwarePlatformError,
    build_platform,
    list_platforms,
)
from repro.hw import surrogate as surrogate_mod
from repro.hw.surrogate import (
    SurrogateModel,
    SurrogatePlatform,
    budget_verdict,
    fit_surrogate,
    surrogate_model_for,
    validate_surrogate,
)
from repro.nasbench.compile import compile_cell_ops
from repro.nasbench.known_cells import resnet_cell
from repro.nasbench.skeleton import CIFAR10_SKELETON


@pytest.fixture(scope="module")
def base():
    return build_platform("embedded-lite")


@pytest.fixture(scope="module")
def model(base):
    return surrogate_model_for(base, use_disk_cache=False)


@pytest.fixture(scope="module")
def platform(base, model):
    return SurrogatePlatform(base, model)


@pytest.fixture(scope="module")
def resnet_ir():
    return compile_cell_ops(resnet_cell(), CIFAR10_SKELETON)


@pytest.fixture(scope="module", params=list_platforms())
def twin(request):
    """The learned twin of one registered platform, as two-tier builds it."""
    exact = build_platform(request.param)
    return SurrogatePlatform(exact, surrogate_model_for(exact, use_disk_cache=False))


#: Twins of spaces up to this size are checked over the whole space;
#: larger ones on a seeded sample of this many configs.
FULL_SPACE_LIMIT = 500
SAMPLE_SIZE = 64


def _checked_indices(space):
    if space.size <= FULL_SPACE_LIMIT:
        return np.arange(space.size)
    rng = np.random.default_rng(0)
    return np.sort(rng.choice(space.size, SAMPLE_SIZE, replace=False))


class TestFit:
    def test_fit_is_deterministic(self, base):
        a = fit_surrogate(base, n_samples=64, seed=3)
        b = fit_surrogate(base, n_samples=64, seed=3)
        assert a.digest == b.digest

    def test_fit_inputs_key_the_model(self, base):
        a = fit_surrogate(base, n_samples=64, seed=3)
        b = fit_surrogate(base, n_samples=64, seed=4)
        assert a.digest != b.digest

    def test_surrogate_of_surrogate_refused(self, platform):
        with pytest.raises(HardwarePlatformError, match="surrogate of a surrogate"):
            fit_surrogate(platform)

    def test_tiny_sample_refused(self, base):
        with pytest.raises(HardwarePlatformError, match="at least 16"):
            fit_surrogate(base, n_samples=8)

    def test_holdout_report_clears_default_budget(self, model):
        # The fit-time holdout errors (a fifth of the configs plus an
        # entire held-out cell) are stored in the artifact; the shipped
        # platform must clear the shipped budget.
        verdict = budget_verdict(model.report)
        assert verdict["passed"], verdict
        assert set(verdict["metrics"]) == {"area", "latency"}


class TestPlatformContract:
    def test_batch_equals_scalar(self, twin):
        space = twin.config_space()
        indices = _checked_indices(space)
        cols = space.columns_at(indices)
        # The platform's own probe IR: a GEMM IR on charm-u50, a cell
        # network on the rest.
        ir = surrogate_mod._platform_probe_ir(twin.base, CIFAR10_SKELETON)
        batch_area = twin.batch_area_mm2(cols)
        batch_latency = twin.batch_network_latency_s(ir, cols)
        for pos, index in enumerate(indices):
            config = space.config_at(int(index))
            assert batch_area[pos] == twin.area_mm2(config)
            assert batch_latency[pos] == twin.network_latency_s(ir, config)

    def test_space_and_validity_delegate_to_base(self, twin):
        # Two-tier screens with the twin's validity, so it must be the
        # exact platform's, charm-u50's own rules included.
        space = twin.config_space()
        assert space.size == twin.base.config_space().size
        cols = space.columns_at(_checked_indices(space))
        assert np.array_equal(
            twin.batch_config_valid(cols), twin.base.batch_config_valid(cols)
        )

    def test_operand_coercion_matches_full_columns(self, platform, resnet_ir):
        space = platform.config_space()
        full = platform.batch_network_latency_s(resnet_ir, space.columns())
        assert np.array_equal(
            platform.batch_network_latency_s(resnet_ir), full
        )
        configs = [space.config_at(i) for i in (0, 7, space.size - 1)]
        from_list = platform.batch_network_latency_s(resnet_ir, configs)
        assert np.array_equal(from_list, full[[0, 7, space.size - 1]])

    def test_namespace_pins_model_digest(self, twin):
        ns = twin.cache_namespace()
        assert ns == f"hw/surrogate:{twin.base.name}/m{twin.model.digest[:10]}"
        assert ns != twin.base.cache_namespace()
        other = SurrogatePlatform(
            twin.base, fit_surrogate(twin.base, n_samples=64, seed=3)
        )
        # A differently fitted model must key different cache rows.
        assert other.cache_namespace() != ns

    def test_mismatched_base_refused(self, model):
        with pytest.raises(HardwarePlatformError, match="fitted for platform"):
            SurrogatePlatform(build_platform("dac2020"), model)


class TestArtifact:
    def _model_for(self, base, tmp_path):
        return surrogate_model_for(
            base, n_samples=64, seed=7, cache_dir=tmp_path
        )

    def test_round_trip_serves_identical_predictions(
        self, base, tmp_path, monkeypatch, resnet_ir
    ):
        first = self._model_for(base, tmp_path)
        artifacts = list(tmp_path.glob("surrogate_*.json"))
        assert len(artifacts) == 1
        surrogate_mod._SURROGATE_MEMO.clear()
        monkeypatch.setattr(
            surrogate_mod,
            "fit_surrogate",
            lambda *a, **k: pytest.fail("model should come from disk"),
        )
        warm = self._model_for(base, tmp_path)
        assert warm.digest == first.digest
        cols = base.config_space().columns()
        assert np.array_equal(
            SurrogatePlatform(base, warm).batch_network_latency_s(resnet_ir, cols),
            SurrogatePlatform(base, first).batch_network_latency_s(resnet_ir, cols),
        )

    def test_corrupt_artifact_refit(self, base, tmp_path):
        first = self._model_for(base, tmp_path)
        [artifact] = tmp_path.glob("surrogate_*.json")
        artifact.write_text("not json {")
        surrogate_mod._SURROGATE_MEMO.clear()
        refit = self._model_for(base, tmp_path)
        assert refit.digest == first.digest
        # ...and the refit replaced the corrupt file with a loadable one.
        assert SurrogateModel.load(artifact) is not None

    def test_unknown_format_refused(self, base, tmp_path):
        self._model_for(base, tmp_path)
        [artifact] = tmp_path.glob("surrogate_*.json")
        data = json.loads(artifact.read_text())
        data["format"] = 2
        artifact.write_text(json.dumps(data))
        assert SurrogateModel.load(artifact) is None

    def test_drifted_probes_refuse_the_artifact(self, base, tmp_path):
        # A silently edited calibration constant changes the platform's
        # exact answers but not its namespace; the stored probe values
        # must catch it and force a refit.
        first = self._model_for(base, tmp_path)
        [artifact] = tmp_path.glob("surrogate_*.json")
        data = json.loads(artifact.read_text())
        data["probes"]["area_mm2"][0] *= 1.01
        artifact.write_text(json.dumps(data))
        surrogate_mod._SURROGATE_MEMO.clear()
        fits = []
        real_fit = surrogate_mod.fit_surrogate
        try:
            surrogate_mod.fit_surrogate = lambda *a, **k: (
                fits.append(1),
                real_fit(*a, **k),
            )[1]
            refit = self._model_for(base, tmp_path)
        finally:
            surrogate_mod.fit_surrogate = real_fit
        assert fits == [1]
        assert refit.digest == first.digest

    def test_alien_namespace_refused(self, base, tmp_path):
        self._model_for(base, tmp_path)
        [artifact] = tmp_path.glob("surrogate_*.json")
        data = json.loads(artifact.read_text())
        data["base_namespace"] = "hw/some-other-platform"
        artifact.write_text(json.dumps(data))
        surrogate_mod._SURROGATE_MEMO.clear()
        refit = self._model_for(base, tmp_path)
        assert refit.base_namespace == base.cache_namespace()

    def test_failed_save_leaves_no_tmp_file(self, model, tmp_path, monkeypatch):
        path = tmp_path / "artifact.json"
        model.save(path)
        good = path.read_bytes()

        def die(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(surrogate_mod.os, "replace", die)
        with pytest.raises(OSError):
            model.save(path)
        monkeypatch.undo()
        assert list(tmp_path.glob("*.tmp*")) == []
        assert path.read_bytes() == good


class TestSampledFit:
    """Fits on spaces too large to enumerate (the charm-u50 regime)."""

    @pytest.fixture(scope="class")
    def charm(self):
        return build_platform("charm-u50")

    def test_sampled_fit_records_rejection_sampling(self, charm):
        # ~90% of charm-u50 configs are over budget, so a uniform draw
        # must be rejection-topped-up — and the artifact must say so.
        model = fit_surrogate(charm, n_samples=64, seed=7)
        assert model.sampling == {"mode": "rejection", "n_drawn": 64}

    def test_small_space_fit_records_no_sampling(self, base):
        # embedded-lite draws all-valid configs; the sampling record
        # stays empty so historical artifacts keep warm-loading.
        model = fit_surrogate(base, n_samples=64, seed=3)
        assert model.sampling is None

    def test_sampling_survives_serialization(self, charm, tmp_path):
        model = surrogate_model_for(
            charm, n_samples=64, seed=7, cache_dir=tmp_path
        )
        [artifact] = tmp_path.glob("surrogate_*.json")
        reloaded = SurrogateModel.load(artifact)
        assert reloaded is not None
        assert reloaded.sampling == model.sampling == {
            "mode": "rejection", "n_drawn": 64,
        }

    def test_artifact_key_separates_sampled_from_full(
        self, charm, base, tmp_path
    ):
        # The satellite contract: a sampled fit can never warm-load as
        # (or clobber) an enumerated fit — the mode is in the filename.
        surrogate_model_for(charm, n_samples=64, seed=7, cache_dir=tmp_path)
        [sampled] = tmp_path.glob("surrogate_*.json")
        assert "_sampled_" in sampled.name
        surrogate_model_for(base, n_samples=1024, seed=7, cache_dir=tmp_path)
        names = {p.name for p in tmp_path.glob("surrogate_*.json")}
        assert len(names) == 2
        assert any("_full_" in name for name in names)

    def test_sampled_fit_is_deterministic(self, charm):
        a = fit_surrogate(charm, n_samples=64, seed=7)
        b = fit_surrogate(charm, n_samples=64, seed=7)
        assert a.digest == b.digest


class TestValidate:
    def test_embedded_lite_clears_budget(self, base, model):
        report = validate_surrogate(base, n_samples=64, seed=1, model=model)
        assert report["budget"]["passed"], report["budget"]
        assert report["model_digest"] == model.digest
        for metric in ("area", "latency"):
            assert set(report[metric]) >= {
                "mae", "mean_rel_error", "max_rel_error", "rank_corr",
            }

    def test_every_twin_clears_budget(self, twin):
        # What `repro hw validate-surrogate` checks for every platform
        # `repro hw list` prints: the model two-tier builds passes the
        # shipped budget on a fresh sample.
        report = validate_surrogate(twin, model=twin.model)
        assert report["platform"] == twin.base.name
        assert report["budget"]["passed"], report["budget"]

    def test_validation_sample_is_disjoint_from_fit_stream(self, base, model):
        # Same (n, seed) inputs on both sides must still draw different
        # configs — validation scores generalization, not memorization.
        report = validate_surrogate(
            base, n_samples=model.n_samples, seed=model.seed, model=model
        )
        assert report["latency"]["mean_rel_error"] > 0

    def test_name_and_twin_score_alike(self, platform, model):
        by_name = validate_surrogate("embedded-lite", n_samples=32, model=model)
        by_twin = validate_surrogate(platform, n_samples=32, model=model)
        assert by_name == by_twin

    def test_tight_budget_fails(self, base, model):
        impossible = {
            "latency": {
                "mean_rel_error": 0.0,
                "max_rel_error": 0.0,
                "min_rank_corr": 1.1,
            }
        }
        report = validate_surrogate(
            base, n_samples=32, model=model, budget=impossible
        )
        assert not report["budget"]["passed"]
        assert not report["budget"]["metrics"]["latency"]["passed"]
