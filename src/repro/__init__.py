"""Codesign-NAS: joint CNN / FPGA-accelerator search (DAC 2020 repro).

Reproduction of Abdelfattah et al., "Best of Both Worlds: AutoML
Codesign of a CNN and its Hardware Accelerator" (DAC 2020).

Quick tour
----------
>>> from repro.nasbench import resnet_cell, CIFAR10_SKELETON, compile_network
>>> from repro.accelerator import AcceleratorConfig, AreaModel, LatencyModel, schedule_network
>>> ir = compile_network(resnet_cell(), CIFAR10_SKELETON)
>>> config = AcceleratorConfig()
>>> schedule_network(ir, config).latency_ms  # doctest: +SKIP
>>> AreaModel().area_mm2(config)             # doctest: +SKIP

Package map: :mod:`repro.nasbench` (CNN search space),
:mod:`repro.accelerator` (HW design space + models), :mod:`repro.hw`
(pluggable hardware-platform registry), :mod:`repro.core`
(metrics/reward/evaluator/Pareto), :mod:`repro.rl` (numpy REINFORCE),
:mod:`repro.search` (combined/phase/separate strategies + the repeat
engine), :mod:`repro.parallel` (process fan-out + persistent eval
cache), :mod:`repro.nn` (numpy NN substrate), :mod:`repro.training`
(training oracles), :mod:`repro.experiments` (per-table/figure
harness), :mod:`repro.utils` (rng/serialization/tables/registry).
See ``docs/architecture.md`` for the module-by-module tour.
"""

__version__ = "1.1.0"

__all__ = ["__version__"]
