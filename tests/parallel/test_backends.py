"""Tests for the execution-backend protocol and registry."""

import pytest

from repro.parallel.pool import (
    BackendError,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    build_backend,
    get_backend,
    list_backends,
    register_backend,
    validate_backend_params,
)


class TestRegistry:
    def test_builtins_registered(self):
        assert list_backends() == ["cluster", "process", "serial"]

    def test_get_backend_resolves_builtins(self):
        assert get_backend("serial") is SerialBackend
        assert get_backend("process") is ProcessBackend
        assert get_backend("cluster").name == "cluster"

    def test_unknown_name_lists_registered(self):
        with pytest.raises(BackendError, match="serial"):
            get_backend("gpu")

    def test_backend_error_is_value_error(self):
        # Callers that predate the registry catch ValueError.
        with pytest.raises(ValueError):
            get_backend("gpu")

    def test_register_as_decorator_and_reregister_noop(self):
        @register_backend
        class EchoBackend(ExecutionBackend):
            name = "echo-test"

            def run_tasks(self, grid):
                return {task: grid.run_task(task) for task in grid.pending}

        try:
            assert "echo-test" in list_backends()
            register_backend(EchoBackend)  # same class again: no-op
            assert get_backend("echo-test") is EchoBackend
        finally:
            from repro.parallel import pool

            pool._REGISTRY.unregister("echo-test")

    def test_conflicting_registration_rejected(self):
        class Impostor(ExecutionBackend):
            name = "serial"

        with pytest.raises(BackendError, match="already registered"):
            register_backend(Impostor)

    def test_unnamed_class_rejected(self):
        class Nameless(ExecutionBackend):
            pass

        with pytest.raises(BackendError, match="no name"):
            register_backend(Nameless)


class TestParamValidation:
    def test_no_params_always_fine(self):
        validate_backend_params("serial", None)
        validate_backend_params("process", {})

    def test_unknown_param_named(self):
        with pytest.raises(BackendError, match=r"\['bogus'\]"):
            validate_backend_params("cluster", {"bogus": 1})

    def test_allowed_params_listed_in_error(self):
        with pytest.raises(BackendError, match="stale_after"):
            validate_backend_params("cluster", {"nope": 1})

    def test_parameterless_backend_rejects_any_params(self):
        # serial/process define no constructor; object.__init__'s
        # *args/**kwargs must not make arbitrary params look valid.
        with pytest.raises(BackendError, match="no parameters"):
            validate_backend_params("serial", {"stale_after": 1.0})

    def test_non_mapping_rejected(self):
        with pytest.raises(BackendError, match="mapping"):
            validate_backend_params("cluster", [1, 2])

    def test_var_keyword_constructor_passes_through(self):
        class Flexible(ExecutionBackend):
            name = "flex-test"

            def __init__(self, **kwargs):
                self.kwargs = kwargs

        register_backend(Flexible)
        try:
            validate_backend_params("flex-test", {"anything": True})
            assert build_backend("flex-test", {"anything": True}).kwargs == {
                "anything": True
            }
        finally:
            from repro.parallel import pool

            pool._REGISTRY.unregister("flex-test")


class TestBuildBackend:
    def test_builds_with_params(self):
        backend = build_backend("cluster", {"stale_after": 5.0})
        assert backend.stale_after == 5.0

    def test_defaults_without_params(self):
        assert build_backend("serial").name == "serial"

    def test_bad_value_wrapped_with_backend_name(self):
        with pytest.raises(BackendError, match="cluster"):
            build_backend("cluster", {"stale_after": -1.0})

    def test_heartbeat_must_beat_staleness(self):
        with pytest.raises(BackendError, match="heartbeat_every"):
            build_backend("cluster", {"heartbeat_every": 10.0, "stale_after": 5.0})


class TestProtocol:
    def test_default_describe_execution(self):
        assert SerialBackend().describe_execution(None) == {
            "requested": "serial",
            "effective": "serial",
        }
