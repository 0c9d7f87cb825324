"""Registry-drift and round-trip suites for :mod:`repro.workloads`.

Mirrors tests/hw/test_platforms.py: every listed workload must
construct its encoding, describe itself as JSON, and stay compatible
with the accuracy-source and platform registries it names — so adding
a workload whose wiring is broken fails here by name.
"""

import json

import numpy as np
import pytest

from repro.core.evaluator import list_accuracy_sources
from repro.hw import list_platforms
from repro.workloads import (
    DEFAULT_WORKLOAD,
    WorkloadError,
    default_workload,
    get_workload,
    list_workloads,
    register_workload,
)


@pytest.fixture(scope="module")
def workloads():
    return {name: get_workload(name) for name in list_workloads()}


class TestRegistry:
    def test_builtin_workloads_registered(self):
        assert set(list_workloads()) >= {"cnn-cell", "transformer"}

    def test_default_workload_is_the_reference(self):
        assert DEFAULT_WORKLOAD == "cnn-cell"
        assert default_workload().is_reference

    def test_unknown_workload_names_registered(self):
        with pytest.raises(WorkloadError, match="registered:"):
            get_workload("diffusion")

    def test_duplicate_registration_refused(self):
        cnn = get_workload("cnn-cell")
        with pytest.raises(WorkloadError, match="already registered"):
            register_workload(
                "cnn-cell",
                description="dupe",
                encoding_factory=cnn.encoding_factory,
                compile=cnn.compile,
                default_accuracy_source=cnn.default_accuracy_source,
                accuracy_sources=cnn.accuracy_sources,
                platforms=cnn.platforms,
            )

    def test_exactly_one_reference_workload(self, workloads):
        references = [n for n, w in workloads.items() if w.is_reference]
        assert references == ["cnn-cell"]


class TestRegistryDrift:
    """Every listed workload must wire into the other registries."""

    def test_encodings_construct_and_describe(self, workloads):
        for name, workload in workloads.items():
            encoding = workload.encoding()
            assert encoding.num_tokens == len(encoding.vocab_sizes), name
            assert all(v > 0 for v in encoding.vocab_sizes), name
            json.dumps(workload.describe())

    def test_accuracy_sources_exist(self, workloads):
        registered = set(list_accuracy_sources())
        for name, workload in workloads.items():
            assert workload.default_accuracy_source in workload.accuracy_sources
            for source in workload.accuracy_sources:
                assert source in registered, f"{name}: {source}"

    def test_platforms_exist(self, workloads):
        registered = set(list_platforms())
        for name, workload in workloads.items():
            assert workload.platforms, name
            for platform in workload.platforms:
                assert platform in registered, f"{name}: {platform}"

    def test_supports_platform(self, workloads):
        for name, workload in workloads.items():
            assert workload.supports_platform(workload.platforms[0]), name
            assert not workload.supports_platform("tpu-v9"), name

    def test_decode_encode_round_trip(self, workloads):
        # decode(encode(spec)) must reproduce the spec's hash — exact
        # action equality is not required (cell decoding canonicalizes
        # isomorphic graphs).
        rng = np.random.default_rng(3)
        for name, workload in workloads.items():
            encoding = workload.encoding()
            seen_valid = 0
            for _ in range(64):
                spec = encoding.decode(encoding.random_actions(rng))
                if not spec.valid:
                    continue
                seen_valid += 1
                re_spec = encoding.decode(encoding.encode(spec))
                assert re_spec.spec_hash() == spec.spec_hash(), name
            assert seen_valid > 0, name

    def test_compile_produces_ops(self, workloads):
        from repro.nasbench.skeleton import CIFAR10_SKELETON

        rng = np.random.default_rng(4)
        for name, workload in workloads.items():
            encoding = workload.encoding()
            spec = None
            while spec is None or not spec.valid:
                spec = encoding.decode(encoding.random_actions(rng))
            ir = workload.compile(spec, CIFAR10_SKELETON)
            assert len(ir.ops) > 0, name


class TestRegistrationValidation:
    def _kwargs(self, **overrides):
        cnn = get_workload("cnn-cell")
        kwargs = dict(
            description="probe",
            encoding_factory=cnn.encoding_factory,
            compile=cnn.compile,
            default_accuracy_source="database",
            accuracy_sources=("database",),
            platforms=("dac2020",),
        )
        kwargs.update(overrides)
        return kwargs

    def test_default_source_must_be_listed(self):
        with pytest.raises(WorkloadError, match="default accuracy source"):
            register_workload(
                "probe-bad-source",
                **self._kwargs(default_accuracy_source="surrogate"),
            )

    def test_platforms_must_be_nonempty(self):
        with pytest.raises(WorkloadError, match="platform"):
            register_workload("probe-no-platforms", **self._kwargs(platforms=()))
