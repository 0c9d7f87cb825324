"""The controller goldens: batch > 1, threshold-schedule and checkpoint bytes.

``tests/data/controller_goldens.json`` was generated by
``tests/data/generate_controller_goldens.py`` before the REINFORCE
controller was packed into one parameter vector.  Every case is
replayed through that script's :func:`run_case`, so the test and the
generator cannot drift apart: reward traces, visited sequences and
the tagged JSON of saved checkpoints (weights, Adam moments,
baselines) must match byte for byte.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_controller_goldens", DATA_DIR / "generate_controller_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = _load_generator()
GOLDENS = json.loads(generator.GOLDENS.read_text())


def test_goldens_cover_every_case():
    assert sorted(GOLDENS) == sorted(generator.case_names())


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_case_matches_golden(micro4_bundle, name):
    assert generator.run_case(name, micro4_bundle) == GOLDENS[name]
