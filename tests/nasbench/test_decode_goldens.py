"""Cell decoding against its goldens, spec for spec.

``tests/data/decode_goldens.json`` was generated by
``tests/data/generate_decode_goldens.py`` before decode started
interning specs and remembering their hashes.  Every digest is
recomputed through that script's functions, so the test and the
generator cannot drift apart.  Each encoding decodes its vectors twice:
the first pass builds every spec, the second is served the interned
ones, and both must match the golden.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_decode_goldens", DATA_DIR / "generate_decode_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = _load_generator()
GOLDENS = json.loads(generator.GOLDENS.read_text())


def test_goldens_cover_every_encoding():
    assert sorted(GOLDENS) == sorted(generator.names())


@pytest.mark.parametrize("name", generator.names())
def test_decode_matches_goldens(name):
    golden = GOLDENS[name]
    vectors = generator.action_vectors(name)
    assert len(vectors) == golden["vectors"]
    encoding = generator.encoding_for(name)
    assert generator.decode_digest(encoding, vectors) == golden["md5"]
    assert generator.decode_digest(encoding, vectors) == golden["md5"]
