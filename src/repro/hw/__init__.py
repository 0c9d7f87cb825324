"""Pluggable hardware platforms for the codesign evaluator.

A :class:`HardwarePlatform` is the hardware half of ``E(s)``: area and
latency queries (scalar and batched column-wise), a configuration
space, and a cache-namespace identity — registered by name so studies,
the CLI, and the declarative spec path can swap accelerator families
without touching the evaluator (``repro hw list`` shows what ships).
"""

from repro.hw.dac2020 import DEFAULT_PLATFORM_NAME, Dac2020Platform
from repro.hw.platform import (
    HardwarePlatform,
    HardwarePlatformError,
    PlatformEntry,
    build_platform,
    default_platform,
    get_platform,
    list_platforms,
    platform_from_spec,
    register_platform,
)
from repro.hw.charm import CharmConfig, CharmSpace, CharmU50Platform
from repro.hw.gemm import GemmIR, GemmOp, transformer_gemm_ir
from repro.hw.surrogate import (
    DEFAULT_ERROR_BUDGET,
    SurrogateModel,
    SurrogatePlatform,
    fit_surrogate,
    surrogate_model_for,
    validate_surrogate,
)
from repro.hw.tensorized import TENSORIZE_MAX_CONFIGS, enumerable

__all__ = [
    "DEFAULT_ERROR_BUDGET",
    "DEFAULT_PLATFORM_NAME",
    "CharmConfig",
    "CharmSpace",
    "CharmU50Platform",
    "Dac2020Platform",
    "GemmIR",
    "GemmOp",
    "HardwarePlatform",
    "HardwarePlatformError",
    "PlatformEntry",
    "SurrogateModel",
    "SurrogatePlatform",
    "TENSORIZE_MAX_CONFIGS",
    "build_platform",
    "default_platform",
    "enumerable",
    "fit_surrogate",
    "get_platform",
    "list_platforms",
    "platform_from_spec",
    "register_platform",
    "surrogate_model_for",
    "transformer_gemm_ir",
    "validate_surrogate",
]
