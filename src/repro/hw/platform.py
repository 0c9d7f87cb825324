"""The hardware-platform API: protocol + registry.

The paper co-designs a CNN *and* its accelerator, but which accelerator
family — which area/latency models, over which configuration space — is
an axis of its own.  A :class:`HardwarePlatform` packages that axis
behind a small surface the evaluator consumes:

* ``area_mm2(config)`` / ``batch_area_mm2(cols)`` — silicon area of one
  configuration / of a whole column set at once (the batched
  column-wise query is the first-class interface; the scalar call must
  agree with it bit for bit, which the test suite checks per platform);
* ``network_latency_s(ir, config)`` /
  ``batch_network_latency_s(ir, cols)`` — end-to-end latency of a
  compiled network on one / on every configuration;
* ``config_space()`` — the platform's :class:`AcceleratorSpace`
  (platforms may restrict the searchable parameter domains, e.g. an
  embedded profile without wide engines);
* ``cache_namespace()`` — a stable identity pinning the platform name
  and every result-affecting parameter, so persistent eval-cache rows
  and run-ledger entries from different platforms never mix;
* ``to_dict()`` / the registry's ``from_params`` path — plain-JSON
  round-tripping, so a platform is nameable from a
  :class:`repro.core.study.StudySpec` or ``--set hardware.name=...``.

Platforms register by name — mirroring the accuracy-source registry in
:mod:`repro.core.evaluator` — and the rest of the stack (evaluator,
study specs, CLI, presets) resolves them through
:func:`build_platform`.  The shipped platforms live in
:mod:`repro.hw.dac2020`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.space import AcceleratorSpace
from repro.nasbench.compile import NetworkIR

__all__ = [
    "HardwarePlatform",
    "HardwarePlatformError",
    "PlatformEntry",
    "register_platform",
    "get_platform",
    "list_platforms",
    "build_platform",
    "platform_from_spec",
    "default_platform",
    "params_token",
]


class HardwarePlatformError(ValueError):
    """A platform name or its params could not be resolved."""


def params_token(params: dict | None) -> str:
    """A short stable digest of a params mapping ('' when empty).

    Appended to cache namespaces so *any* parameter difference keeps
    two platform configurations from sharing cached rows.
    """
    if not params:
        return ""
    blob = json.dumps(params, sort_keys=True, default=str)
    return "/p" + hashlib.md5(blob.encode()).hexdigest()[:10]


class HardwarePlatform:
    """Abstract hardware backend of the codesign evaluator.

    Subclasses model one accelerator family.  ``name`` is the
    registered identity, ``params`` the canonical (JSON-plain) mapping
    that reproduces the instance through the registry's build function.
    """

    name: str = "abstract"
    params: dict

    # --- metric queries ---------------------------------------------------
    def area_mm2(self, config: AcceleratorConfig) -> float:
        """Silicon area of one configuration (mm2)."""
        raise NotImplementedError

    def batch_area_mm2(self, cols: dict[str, np.ndarray]) -> np.ndarray:
        """Vectorized :meth:`area_mm2` over config columns.

        Must agree with the scalar call bit for bit on every
        configuration of :meth:`config_space` (property-tested for all
        registered platforms).
        """
        raise NotImplementedError

    def network_latency_s(self, ir: NetworkIR, config: AcceleratorConfig) -> float:
        """End-to-end latency of a compiled network (seconds)."""
        raise NotImplementedError

    def batch_network_latency_s(self, ir: NetworkIR, configs) -> np.ndarray:
        """Vectorized :meth:`network_latency_s` over config columns."""
        raise NotImplementedError

    def config_valid(self, config: AcceleratorConfig) -> bool:
        """Whether a configuration is realizable on this platform.

        The shipped platforms restrict their searchable domains through
        ``config_space()`` instead, so every enumerated configuration
        is valid (the default).  A platform with cross-parameter
        constraints (e.g. a shared DSP budget) overrides this; invalid
        configurations evaluate to ``None`` metrics and earn the
        scenario punishment, exactly like invalid cells.
        """
        return True

    def batch_config_valid(self, cols: dict[str, np.ndarray]) -> np.ndarray:
        """Vectorized :meth:`config_valid` over config columns.

        Must agree with the scalar call on every configuration of
        :meth:`config_space`.
        """
        n = len(next(iter(cols.values()))) if cols else 0
        return np.ones(n, dtype=bool)

    # --- identity ---------------------------------------------------------
    def config_space(self) -> AcceleratorSpace:
        """The configuration space this platform can realize."""
        raise NotImplementedError

    def cache_namespace(self) -> str:
        """Stable identity for cache/ledger namespacing.

        Pins the platform name plus every result-affecting parameter;
        two platforms that could disagree on any metric must return
        different namespaces.
        """
        return f"hw/{self.name}{params_token(self.params)}"

    @property
    def is_reference(self) -> bool:
        """True when results are bit-identical to the reference DAC'20
        models over the stock 8640-config space (which is what the
        precomputed bundle latency tables and historical cache rows
        were produced with)."""
        return False

    def to_dict(self) -> dict:
        """Plain-JSON description: ``{"name": ..., "params": ...}``."""
        return {"name": self.name, "params": dict(self.params)}

    def describe(self) -> dict:
        """Human-oriented summary for ``repro hw show``.

        ``config_space_size`` is a pure product of parameter-domain
        lengths — never an enumeration — so describing a
        non-enumerable platform is cheap; ``enumerable`` says whether
        the space is under :data:`repro.hw.tensorized.TENSORIZE_MAX_CONFIGS`
        (spaces past the cap are searched via sampled-fit surrogates).
        """
        from repro.hw.tensorized import TENSORIZE_MAX_CONFIGS

        space = self.config_space()
        return {
            "name": self.name,
            "params": dict(self.params),
            "cache_namespace": self.cache_namespace(),
            "config_space_size": space.size,
            "enumerable": space.size <= TENSORIZE_MAX_CONFIGS,
            "parameter_values": {
                key: list(values) for key, values in space.parameters.items()
            },
            "reference": self.is_reference,
        }


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlatformEntry:
    """One registered hardware-platform recipe."""

    name: str
    build: Callable[[dict], HardwarePlatform]
    description: str = ""


_PLATFORMS: dict[str, PlatformEntry] = {}


def register_platform(
    name: str,
    build: Callable[[dict], HardwarePlatform],
    description: str = "",
    overwrite: bool = False,
) -> PlatformEntry:
    """Register a platform under ``name``.

    ``build`` maps a (possibly empty) params dict to a ready
    :class:`HardwarePlatform`; it must validate the params and raise
    :class:`HardwarePlatformError` on unknown names or bad values.
    """
    if name in _PLATFORMS and not overwrite:
        raise HardwarePlatformError(
            f"hardware platform {name!r} is already registered"
        )
    entry = PlatformEntry(name=name, build=build, description=description)
    _PLATFORMS[name] = entry
    return entry


def list_platforms() -> list[str]:
    """Registered platform names, sorted."""
    return sorted(_PLATFORMS)


def get_platform(name: str) -> PlatformEntry:
    """The registry entry for ``name`` (raises with the known names)."""
    if name not in _PLATFORMS:
        raise HardwarePlatformError(
            f"unknown hardware platform {name!r}; registered: "
            f"{', '.join(list_platforms())}"
        )
    return _PLATFORMS[name]


def build_platform(name: str, params: dict | None = None) -> HardwarePlatform:
    """Construct a registered platform from its params mapping."""
    return get_platform(name).build(dict(params or {}))


def platform_from_spec(data: dict) -> HardwarePlatform:
    """Build a platform from a ``{"name": ..., "params": ...}`` mapping."""
    if not isinstance(data, dict) or "name" not in data:
        raise HardwarePlatformError(
            f"a hardware spec is a mapping with a 'name' (and optional "
            f"'params'), got {data!r}"
        )
    # "label" and "tensorize" are HardwareSpec-level concerns (outcome
    # keying, and a field archived specs may carry); they never reach
    # the builder.
    unknown = sorted(set(data) - {"name", "params", "label", "tensorize"})
    if unknown:
        raise HardwarePlatformError(
            f"hardware spec has unknown field(s) {unknown}"
        )
    return build_platform(data["name"], data.get("params"))


def default_platform() -> HardwarePlatform:
    """The reference platform every pre-existing experiment ran on."""
    return build_platform("dac2020")
