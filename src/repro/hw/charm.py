"""The ``charm-u50`` platform: CHARM-style tiled-GEMM on an Alveo U50.

Models the CDSE ("CHARM design-space exploration") axes of CHARM
(Zhuang et al., FPGA'23-style diagonal accelerators, here simplified to
an output-stationary tiled systolic GEMM engine): per-accelerator tile
shape ``tile_m`` x ``tile_n`` x ``tile_k``, the number of replicated
accelerators sharing the device, and the operand ``bitwidth``.  A
configuration is *valid* when it fits the U50 budgets — DSP slices,
BRAM18K blocks for double-buffered A/B tiles, URAM for 32-bit
accumulator tiles, and HBM pseudo-channels (each accelerator owns a
fixed number of channels per operand stream, wider data needs more).

The config space (393,216 points) deliberately exceeds
``TENSORIZE_MAX_CONFIGS``: this is the first shipped platform whose
surrogate must be fitted from *sampled* configurations and whose
two-tier ``--surrogate`` search is the only affordable search mode.
Latency consumes :class:`repro.hw.gemm.GemmIR` ops natively (through
``gemm_dims``) and falls back to a ``(spatial, in_ch, out_ch)`` view
for CNN ops, so cross-workload validation keeps working.

Like every platform, the batched column-wise queries are the primary
interface and the scalar calls are one-row batches — bit-identical by
construction, property-tested via the registry.
"""

from __future__ import annotations

import numpy as np

from repro.accelerator.space import AcceleratorSpace
from repro.hw.gemm import (
    GemmIR,
    canonical_transformer_irs,
    random_transformer_irs,
)
from repro.hw.platform import (
    HardwarePlatform,
    HardwarePlatformError,
    register_platform,
)
from repro.utils.registry import check_params, check_positive
from repro.utils.rng import hash_seed, make_rng

__all__ = [
    "CharmConfig",
    "CharmSpace",
    "CharmU50Platform",
    "CHARM_PARAMETER_VALUES",
    "U50_BUDGETS",
]

#: Alveo U50 device budgets (public datasheet numbers).
U50_BUDGETS = {
    "dsp": 5952,
    "bram_18k": 2688,
    "uram": 320,
    "hbm_channels": 32,
}

#: Bytes per BRAM18K block / per URAM block.
_BRAM_BYTES = 18 * 1024 // 8
_URAM_BYTES = 36 * 1024

DEFAULT_CLOCK_MHZ = 300.0
DEFAULT_HBM_GBPS = 460.0

#: The CDSE tile axes.  Little-endian like every AcceleratorSpace:
#: ``tile_m`` varies fastest.  32 * 32 * 16 * 8 * 3 = 393,216 configs.
CHARM_PARAMETER_VALUES: dict[str, tuple] = {
    "tile_m": tuple(range(8, 257, 8)),
    "tile_n": tuple(range(8, 257, 8)),
    "tile_k": tuple(range(8, 129, 8)),
    "num_accels": tuple(range(1, 9)),
    "bitwidth": (8, 16, 32),
}


class CharmConfig:
    """One tiled-GEMM accelerator configuration (frozen, interned).

    Mirrors :class:`repro.accelerator.AcceleratorConfig`'s surface
    (attribute per parameter, ``to_dict``/``from_dict``, domain
    validation in the constructor) without dataclass machinery so the
    parameter list stays in one place (``CHARM_PARAMETER_VALUES``).
    """

    __slots__ = ("tile_m", "tile_n", "tile_k", "num_accels", "bitwidth")

    def __init__(self, tile_m: int, tile_n: int, tile_k: int,
                 num_accels: int, bitwidth: int) -> None:
        values = {
            "tile_m": tile_m,
            "tile_n": tile_n,
            "tile_k": tile_k,
            "num_accels": num_accels,
            "bitwidth": bitwidth,
        }
        for name, value in values.items():
            if value not in CHARM_PARAMETER_VALUES[name]:
                raise ValueError(
                    f"{name}={value!r} is not in the charm-u50 domain "
                    f"{CHARM_PARAMETER_VALUES[name]}"
                )
            object.__setattr__(self, name, int(value))

    def __setattr__(self, name, value):  # frozen, like AcceleratorConfig
        raise AttributeError("CharmConfig is immutable")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in CHARM_PARAMETER_VALUES)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CharmConfig):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)}" for name in CHARM_PARAMETER_VALUES
        )
        return f"CharmConfig({fields})"

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in CHARM_PARAMETER_VALUES}

    @classmethod
    def from_dict(cls, data: dict) -> "CharmConfig":
        return cls(**{name: data[name] for name in CHARM_PARAMETER_VALUES})

    def short_name(self) -> str:
        return (
            f"t{self.tile_m}x{self.tile_n}x{self.tile_k}"
            f"-a{self.num_accels}-b{self.bitwidth}"
        )


class CharmSpace(AcceleratorSpace):
    """The charm-u50 mixed-radix space decoding to :class:`CharmConfig`."""

    config_class = CharmConfig

    def __init__(self, parameters: dict[str, tuple] | None = None) -> None:
        super().__init__(parameters=dict(parameters or CHARM_PARAMETER_VALUES))


def _as_float_cols(cols: dict[str, np.ndarray]) -> tuple[np.ndarray, ...]:
    return tuple(
        np.asarray(cols[name], dtype=np.float64)
        for name in ("tile_m", "tile_n", "tile_k", "num_accels", "bitwidth")
    )


def _resource_columns(cols: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Per-config U50 resource usage, vectorized over config columns."""
    tm, tn, tk, na, bw = _as_float_cols(cols)
    # DSP48E2s per MAC scale with operand width: int8 packs two MACs per
    # DSP, int16 needs one, fp32 a 4-DSP cascade.
    dsp_factor = np.where(bw == 8, 0.5, np.where(bw == 16, 1.0, 4.0))
    dsps = np.ceil(tm * tn * dsp_factor) * na
    # Double-buffered A (tm x tk) and B (tk x tn) tiles in BRAM18K.
    brams = np.ceil((tm * tk + tk * tn) * (bw / 8.0) * 2.0 / _BRAM_BYTES) * na
    # The C tile accumulates at 32 bit in URAM, also double-buffered.
    urams = np.ceil(tm * tn * 4.0 * 2.0 / _URAM_BYTES) * na
    # HBM pseudo-channels per accelerator: two streams (A+B) at int8,
    # three at int16, six at fp32 (C spill + wider operands).
    cpa = np.where(bw == 8, 2.0, np.where(bw == 16, 3.0, 6.0))
    return {
        "dsps": dsps,
        "brams": brams,
        "urams": urams,
        "channels": na * cpa,
    }


def _tile_utilization(dim: float, tile: np.ndarray) -> np.ndarray:
    """Fraction of tile MACs doing useful work along one dimension."""
    return dim / (np.ceil(dim / tile) * tile)


def _op_dims(op) -> tuple[float, float, float]:
    dims = getattr(op, "gemm_dims", None)
    if dims is not None:
        return (float(dims[0]), float(dims[1]), float(dims[2]))
    # CNN fallback: an op is a (spatial x in_ch) x (in_ch x out_ch) GEMM.
    return (
        float(op.height * op.width),
        float(max(op.in_channels, 1)),
        float(max(op.out_channels, 1)),
    )


class CharmU50Platform(HardwarePlatform):
    """Analytic area/latency/validity models for the tiled-GEMM U50."""

    def __init__(self, params: dict | None = None,
                 clock_mhz: float = DEFAULT_CLOCK_MHZ,
                 hbm_gbps: float = DEFAULT_HBM_GBPS) -> None:
        self.name = "charm-u50"
        self.params = dict(params or {})
        self.clock_hz = float(clock_mhz) * 1e6
        self.hbm_bandwidth = float(hbm_gbps) * 1e9
        self._space = CharmSpace()

    # --- batched queries (the primary interface) --------------------------
    def batch_area_mm2(self, cols: dict[str, np.ndarray]) -> np.ndarray:
        res = _resource_columns(cols)
        # Die-area proxy: a fixed shell plus per-resource coefficients
        # (16 nm UltraScale+ cell-area estimates).  Finite and positive
        # for every point, including over-budget (invalid) ones.
        return (
            6.0
            + res["dsps"] * 0.00058
            + res["brams"] * 0.0026
            + res["urams"] * 0.0075
        )

    def batch_network_latency_s(self, ir, configs=None) -> np.ndarray:
        cols = self._as_columns(configs)
        tm, tn, tk, na, bw = _as_float_cols(cols)
        res = _resource_columns(cols)
        # int8 packs 2 MACs/DSP-cycle; fp32 sustains a quarter rate.
        pack = np.where(bw == 8, 2.0, np.where(bw == 16, 1.0, 0.25))
        macs_per_cycle = tm * tn * pack * na
        bytes_per_s = (
            self.hbm_bandwidth
            * np.minimum(res["channels"], float(U50_BUDGETS["hbm_channels"]))
            / float(U50_BUDGETS["hbm_channels"])
        )
        total = np.zeros_like(tm)
        for op in ir.ops:
            macs = float(op.macs)
            if macs > 0.0:
                m, k, n = _op_dims(op)
                util = (
                    _tile_utilization(m, tm)
                    * _tile_utilization(k, tk)
                    * _tile_utilization(n, tn)
                )
                compute_s = macs / (macs_per_cycle * util * self.clock_hz)
            else:
                compute_s = np.zeros_like(tm)
            op_bytes = float(op.input_bytes + op.weight_bytes + op.output_bytes)
            mem_s = op_bytes * (bw / 8.0) / bytes_per_s
            total = total + np.maximum(compute_s, mem_s)
        return total

    def batch_config_valid(self, cols: dict[str, np.ndarray]) -> np.ndarray:
        res = _resource_columns(cols)
        return (
            (res["dsps"] <= U50_BUDGETS["dsp"])
            & (res["brams"] <= U50_BUDGETS["bram_18k"])
            & (res["urams"] <= U50_BUDGETS["uram"])
            & (res["channels"] <= U50_BUDGETS["hbm_channels"])
        )

    # --- scalar queries are one-row batches (bit-identity for free) -------
    def _one_row(self, config) -> dict[str, np.ndarray]:
        return {
            name: np.asarray([getattr(config, name)])
            for name in self._space.names
        }

    def area_mm2(self, config) -> float:
        return float(self.batch_area_mm2(self._one_row(config))[0])

    def network_latency_s(self, ir, config) -> float:
        return float(self.batch_network_latency_s(ir, self._one_row(config))[0])

    def config_valid(self, config) -> bool:
        return bool(self.batch_config_valid(self._one_row(config))[0])

    def _as_columns(self, configs) -> dict[str, np.ndarray]:
        if configs is None:
            configs = self._space
        if hasattr(configs, "columns"):
            return configs.columns()
        if isinstance(configs, dict):
            return configs
        return {
            name: np.asarray([getattr(c, name) for c in configs])
            for name in self._space.names
        }

    # --- identity ---------------------------------------------------------
    def config_space(self) -> AcceleratorSpace:
        return self._space

    def describe(self) -> dict:
        out = super().describe()
        out.update(
            clock_mhz=self.clock_hz / 1e6,
            hbm_gbps=self.hbm_bandwidth / 1e9,
            budgets=dict(U50_BUDGETS),
        )
        return out

    # --- surrogate hooks --------------------------------------------------
    # The surrogate fitter dispatches feature extraction and training-
    # workload generation through these when present (falling back to
    # the CNN-cell defaults otherwise), so one fitter serves both
    # workload families.

    def surrogate_config_features(self, cols: dict[str, np.ndarray]) -> np.ndarray:
        tm, tn, tk, na, bw = _as_float_cols(cols)
        res = _resource_columns(cols)
        feats = [
            tm, tn, tk, na, bw,
            res["dsps"], res["brams"], res["urams"], res["channels"],
            np.log1p(res["dsps"]), np.log1p(res["brams"]),
            np.log1p(res["urams"]),
            tm * tn, tm * tn * tk,
        ]
        return np.column_stack(feats)

    def surrogate_latency_features(self, ir, cols: dict[str, np.ndarray]) -> np.ndarray:
        tm, tn, tk, na, bw = _as_float_cols(cols)
        res = _resource_columns(cols)
        pack = np.where(bw == 8, 2.0, np.where(bw == 16, 1.0, 0.25))
        macs_per_cycle = tm * tn * pack * na
        bytes_per_s = (
            self.hbm_bandwidth
            * np.minimum(res["channels"], float(U50_BUDGETS["hbm_channels"]))
            / float(U50_BUDGETS["hbm_channels"])
        )
        total_macs = 0.0
        total_bytes = 0.0
        util_time = np.zeros_like(tm)
        mixed_time = np.zeros_like(tm)
        util_sum = np.zeros_like(tm)
        gemm_ops = 0
        for op in ir.ops:
            macs = float(op.macs)
            op_bytes = float(op.input_bytes + op.weight_bytes + op.output_bytes)
            op_mem = op_bytes * (bw / 8.0) / bytes_per_s
            if macs > 0.0:
                m, k, n = _op_dims(op)
                util = (
                    _tile_utilization(m, tm)
                    * _tile_utilization(k, tk)
                    * _tile_utilization(n, tn)
                )
                op_compute = macs / (macs_per_cycle * util * self.clock_hz)
                util_time = util_time + op_compute
                util_sum = util_sum + util
                gemm_ops += 1
            else:
                op_compute = np.zeros_like(tm)
            mixed_time = mixed_time + np.maximum(op_compute, op_mem)
            total_macs += macs
            total_bytes += op_bytes
        ideal_compute = total_macs / (macs_per_cycle * self.clock_hz)
        mem_time = total_bytes * (bw / 8.0) / bytes_per_s
        mean_util = util_sum / max(gemm_ops, 1)
        feats = [
            tm, tn, tk, na, bw,
            macs_per_cycle, 1.0 / macs_per_cycle,
            ideal_compute, util_time, mem_time, mixed_time,
            np.maximum(util_time, mem_time), util_time + mem_time,
            np.log(util_time), np.log(mem_time), np.log(mixed_time),
            mean_util,
        ]
        return np.column_stack(feats)

    def surrogate_training_irs(self, skeleton, seed: int) -> list[GemmIR]:
        rng = make_rng(hash_seed("hw-surrogate-gemms", seed))
        return canonical_transformer_irs() + random_transformer_irs(rng, 3)

    def surrogate_probe_ir(self, skeleton) -> GemmIR:
        return canonical_transformer_irs()[0]

    def surrogate_validation_irs(self, rng, count: int) -> list[GemmIR]:
        return random_transformer_irs(rng, count)


# ---------------------------------------------------------------------------
# Registered recipe
# ---------------------------------------------------------------------------

def _build_charm(params: dict) -> CharmU50Platform:
    what = "hardware platform 'charm-u50'"
    defaults = {"clock_mhz": DEFAULT_CLOCK_MHZ, "hbm_gbps": DEFAULT_HBM_GBPS}
    check_params(what, params, defaults, HardwarePlatformError)
    cfg = {
        key: check_positive(what, key, value, HardwarePlatformError)
        for key, value in {**defaults, **params}.items()
    }
    return CharmU50Platform(
        params=params, clock_mhz=cfg["clock_mhz"], hbm_gbps=cfg["hbm_gbps"]
    )


register_platform(
    "charm-u50",
    _build_charm,
    description="CHARM-style tiled-GEMM accelerators on an Alveo U50: "
    "tile_m/tile_n/tile_k x num_accels x bitwidth under DSP/BRAM/URAM/"
    "HBM-channel budgets (393,216 configs — surrogate-only search)",
)
