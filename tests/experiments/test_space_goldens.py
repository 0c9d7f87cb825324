"""The enumerated space against its goldens, bit for bit and in order.

``tests/data/space_goldens.json`` was generated by
``tests/data/generate_space_goldens.py`` before the enumeration, the
database build and the product-space Pareto stopped repeating work.
Every digest is recomputed through that script's functions, so the test
and the generator cannot drift apart.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments.common import load_bundle
from repro.nasbench.database import CellDatabase

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_space_goldens", DATA_DIR / "generate_space_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = _load_generator()
GOLDENS = json.loads(generator.GOLDENS.read_text())


def test_micro5_records_match_goldens():
    database = CellDatabase.nasbench_micro()
    golden = GOLDENS["micro5_records"]
    assert len(database) == golden["count"]
    assert generator.records_digest(database) == golden["sha256"]


def test_micro4_front_matches_goldens(micro4_bundle):
    front = generator.bundle_front(micro4_bundle)
    golden = GOLDENS["micro4_front"]
    assert front.num_points == golden["num_points"]
    assert generator.front_digest(front) == golden["sha256"]


@pytest.mark.slow
def test_micro5_front_matches_goldens():
    """Slow only on a cold cache, which must build the micro-5 bundle."""
    front = generator.bundle_front(load_bundle())
    golden = GOLDENS["micro5_front"]
    assert front.num_points == golden["num_points"]
    assert generator.front_digest(front) == golden["sha256"]
