"""The shipped hardware platforms, all built on the DAC'20 models.

Three registered recipes:

``dac2020``
    The paper's CHaiDNN-style FPGA exactly as modelled by
    :class:`repro.accelerator.AreaModel` /
    :class:`repro.accelerator.LatencyModel` over the stock 8640-config
    space.  This is the *reference* platform: its results are
    bit-identical to the pre-platform-API evaluator, so existing
    goldens, cache rows, and precomputed latency tables stay valid.

``dac2020-scaled``
    A parametric family around the reference: fabric/AXI clocks,
    pipeline and DDR efficiencies, a silicon area scale (process-node
    proxy), and DSP/BRAM budget caps (``max_filter_par`` x
    ``max_pixel_par`` bounds the convolution DSP budget,
    ``max_buffer_depth`` the BRAM spent on on-chip buffers — capped
    parameters simply drop the over-budget domain values).

``embedded-lite``
    A fixed low-area profile: one narrow filter lane group, pixel
    parallelism capped at 16, small buffers, the 256-bit memory
    interface only, and a 100 MHz fabric — the kind of device the
    paper's big designs would never fit.

All three share :class:`Dac2020Platform`, which wires the analytical
models, the per-op :class:`~repro.accelerator.lut.LatencyLUT`
memoization, and the greedy scheduler behind the platform protocol.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from repro.accelerator.area import AreaModel, AreaModelParams
from repro.accelerator.config import PARAMETER_VALUES, AcceleratorConfig
from repro.accelerator.latency import LatencyModel, LatencyModelParams
from repro.accelerator.lut import LatencyLUT
from repro.accelerator.scheduler import batch_schedule, schedule_network
from repro.accelerator.space import AcceleratorSpace
from repro.hw.platform import (
    HardwarePlatform,
    HardwarePlatformError,
    register_platform,
)
from repro.nasbench.compile import NetworkIR
from repro.utils.registry import check_params, check_positive

__all__ = ["Dac2020Platform", "DEFAULT_PLATFORM_NAME"]

DEFAULT_PLATFORM_NAME = "dac2020"


class Dac2020Platform(HardwarePlatform):
    """DAC'20 analytical area/latency models behind the platform API.

    ``params`` should be the registry-level parameter mapping that
    reproduces the instance through ``build_platform`` (the shipped
    builders pass it explicitly).  When constructed by hand with custom
    model objects and no ``params``, a descriptive mapping is derived
    from the models' non-default calibration constants so the cache
    namespace still pins them.
    """

    def __init__(
        self,
        name: str = DEFAULT_PLATFORM_NAME,
        params: dict | None = None,
        area_model: AreaModel | None = None,
        latency_model: LatencyModel | None = None,
        space: AcceleratorSpace | None = None,
        area_scale: float = 1.0,
    ) -> None:
        self.name = name
        self.area_model = area_model or AreaModel()
        self.latency_lut = LatencyLUT(model=latency_model or LatencyModel())
        self._space = space or AcceleratorSpace()
        self.area_scale = float(area_scale)
        self.params = dict(params) if params is not None else self._derived_params()

    def _derived_params(self) -> dict:
        """Non-default model constants, for hand-built instances."""
        out: dict = {}
        for key, model_params, defaults in (
            ("area", self.area_model.params, AreaModelParams()),
            ("latency", self.latency_lut.model.params, LatencyModelParams()),
        ):
            diff = {
                field: value
                for field, value in asdict(model_params).items()
                if value != getattr(defaults, field)
            }
            if diff:
                out[key] = diff
        if self.area_scale != 1.0:
            out["area_scale"] = self.area_scale
        space_diff = {
            param: list(values)
            for param, values in self._space.parameters.items()
            if tuple(values) != PARAMETER_VALUES.get(param)
        }
        if space_diff:
            out["space"] = space_diff
        return out

    # --- metric queries ---------------------------------------------------
    def area_mm2(self, config: AcceleratorConfig) -> float:
        area = self.area_model.area_mm2(config)
        return area if self.area_scale == 1.0 else area * self.area_scale

    def batch_area_mm2(self, cols: dict[str, np.ndarray]) -> np.ndarray:
        area = self.area_model.batch_area_mm2(cols)
        return area if self.area_scale == 1.0 else area * self.area_scale

    def network_latency_s(self, ir: NetworkIR, config: AcceleratorConfig) -> float:
        durations = self.latency_lut.network_durations(ir, config)
        return schedule_network(ir, config, durations=durations).latency_s

    def batch_network_latency_s(self, ir: NetworkIR, configs=None) -> np.ndarray:
        configs = self._space if configs is None else configs
        return batch_schedule(ir, configs, self.latency_lut.model)

    # --- identity ---------------------------------------------------------
    def config_space(self) -> AcceleratorSpace:
        return self._space

    @property
    def is_reference(self) -> bool:
        return (
            self.area_model.params == AreaModelParams()
            and self.latency_lut.model.params == LatencyModelParams()
            and self.area_scale == 1.0
            and {k: tuple(v) for k, v in self._space.parameters.items()}
            == dict(PARAMETER_VALUES)
        )

    def cache_namespace(self) -> str:
        if self.is_reference:
            return f"hw/{DEFAULT_PLATFORM_NAME}"
        return super().cache_namespace()

    def describe(self) -> dict:
        out = super().describe()
        latency_params = self.latency_lut.model.params
        out.update(
            clock_mhz=latency_params.clock_hz / 1e6,
            axi_clock_mhz=latency_params.axi_clock_hz / 1e6,
            compute_efficiency=latency_params.compute_efficiency,
            mem_efficiency=latency_params.mem_efficiency,
            area_scale=self.area_scale,
        )
        return out


# ---------------------------------------------------------------------------
# Registered recipes
# ---------------------------------------------------------------------------

def _capped_space(
    what: str,
    max_filter_par=None,
    max_pixel_par=None,
    max_buffer_depth=None,
) -> AcceleratorSpace:
    """The stock parameter domains with over-budget values dropped."""
    domains = dict(PARAMETER_VALUES)
    caps = {
        "filter_par": max_filter_par,
        "pixel_par": max_pixel_par,
        "input_buffer_depth": max_buffer_depth,
        "weight_buffer_depth": max_buffer_depth,
        "output_buffer_depth": max_buffer_depth,
    }
    for name, cap in caps.items():
        if cap is None:
            continue
        cap = check_positive(what, f"cap on {name}", cap, HardwarePlatformError)
        kept = tuple(v for v in domains[name] if v <= cap)
        if not kept:
            raise HardwarePlatformError(
                f"{what}: cap {cap:g} on {name} leaves no allowed values "
                f"(smallest is {min(domains[name])})"
            )
        domains[name] = kept
    return AcceleratorSpace(parameters=domains)


def _build_dac2020(params: dict) -> Dac2020Platform:
    what = f"hardware platform {DEFAULT_PLATFORM_NAME!r}"
    check_params(what, params, (), HardwarePlatformError)
    return Dac2020Platform(name=DEFAULT_PLATFORM_NAME, params={})


_SCALED_DEFAULTS = {
    "clock_mhz": 150.0,
    "axi_clock_mhz": 266.0,
    "compute_efficiency": 0.7,
    "mem_efficiency": 0.55,
    "area_scale": 1.0,
    "max_filter_par": None,
    "max_pixel_par": None,
    "max_buffer_depth": None,
}


def _build_scaled(params: dict) -> Dac2020Platform:
    name = "dac2020-scaled"
    what = f"hardware platform {name!r}"
    check_params(what, params, _SCALED_DEFAULTS, HardwarePlatformError)
    cfg = {**_SCALED_DEFAULTS, **params}
    for key in ("clock_mhz", "axi_clock_mhz", "area_scale"):
        cfg[key] = check_positive(what, key, cfg[key], HardwarePlatformError)
    for key in ("compute_efficiency", "mem_efficiency"):
        value = check_positive(what, key, cfg[key], HardwarePlatformError)
        if value > 1.0:
            raise HardwarePlatformError(
                f"{what}: {key} must be in (0, 1], got {value:g}"
            )
        cfg[key] = value
    latency_model = LatencyModel(
        LatencyModelParams(
            clock_hz=cfg["clock_mhz"] * 1e6,
            axi_clock_hz=cfg["axi_clock_mhz"] * 1e6,
            compute_efficiency=cfg["compute_efficiency"],
            mem_efficiency=cfg["mem_efficiency"],
        )
    )
    space = _capped_space(
        what,
        max_filter_par=cfg["max_filter_par"],
        max_pixel_par=cfg["max_pixel_par"],
        max_buffer_depth=cfg["max_buffer_depth"],
    )
    return Dac2020Platform(
        name=name,
        params=params,
        latency_model=latency_model,
        space=space,
        area_scale=cfg["area_scale"],
    )


def _build_embedded(params: dict) -> Dac2020Platform:
    name = "embedded-lite"
    check_params(f"hardware platform {name!r}", params, (), HardwarePlatformError)
    latency_model = LatencyModel(
        LatencyModelParams(clock_hz=100e6, axi_clock_hz=200e6, mem_efficiency=0.5)
    )
    space = AcceleratorSpace(
        parameters={
            **PARAMETER_VALUES,
            "filter_par": (8,),
            "pixel_par": (4, 8, 16),
            "input_buffer_depth": (1024, 2048),
            "weight_buffer_depth": (1024, 2048),
            "output_buffer_depth": (1024, 2048),
            "mem_interface_width": (256,),
        }
    )
    return Dac2020Platform(
        name=name, params={}, latency_model=latency_model, space=space
    )


register_platform(
    DEFAULT_PLATFORM_NAME,
    _build_dac2020,
    description="the paper's CHaiDNN-style FPGA (reference models, "
    "8640-config space; bit-identical to the pre-platform evaluator)",
)
register_platform(
    "dac2020-scaled",
    _build_scaled,
    description="parametric dac2020 family: clock_mhz / axi_clock_mhz / "
    "compute_efficiency / mem_efficiency / area_scale, plus DSP/BRAM "
    "budget caps max_filter_par / max_pixel_par / max_buffer_depth",
)
register_platform(
    "embedded-lite",
    _build_embedded,
    description="fixed low-area embedded profile: filter_par=8, "
    "pixel_par<=16, small buffers, 256-bit memory, 100 MHz fabric",
)
