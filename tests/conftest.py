"""Shared fixtures: small enumeration bundles, known cells, RNGs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.space import AcceleratorSpace
from repro.experiments.common import load_bundle
from repro.nasbench.known_cells import KNOWN_CELLS


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def micro4_bundle():
    """Small enumerated joint space (<=4-vertex cells x 8640 configs)."""
    return load_bundle(max_vertices=4)


@pytest.fixture(scope="session")
def hw_space() -> AcceleratorSpace:
    return AcceleratorSpace()


@pytest.fixture(params=sorted(KNOWN_CELLS))
def known_cell(request):
    """Parametrized over resnet / googlenet / cod1 / cod2."""
    return KNOWN_CELLS[request.param]()


@pytest.fixture
def default_config() -> AcceleratorConfig:
    return AcceleratorConfig()


def sample_configs(n: int, seed: int = 0) -> list[AcceleratorConfig]:
    """Deterministic sample of accelerator configs for tests."""
    space = AcceleratorSpace()
    gen = np.random.default_rng(seed)
    return [space.config_at(int(i)) for i in gen.choice(space.size, size=n, replace=False)]
