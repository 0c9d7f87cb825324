"""Regenerate the pinned cell-decode goldens.

``decode_goldens.json`` freezes one md5 per cell encoding over every
spec :meth:`repro.nasbench.CellEncoding.decode` returns for its action
vectors, in order.  Each spec contributes its ``valid`` flag, its
``invalid_reason``, its original matrix bytes and ops, its pruned
matrix bytes and ops, and its ``spec_hash()`` (``"invalid"`` for an
invalid spec).  The vectors are:

* ``v2`` .. ``v5`` — every action vector of the 2- to 5-vertex
  encodings (27,648 at 5 vertices: every proposal a ``fig5`` study can
  make);
* ``v7_sample`` — ``SAMPLE_SIZE`` seeded vectors of the default
  7-vertex, 26-token encoding.

The file was generated before decode started interning specs and
remembering their hashes, so the test
(``tests/nasbench/test_decode_goldens.py``) holds the faster decode to
the old specs bit for bit.

Do not regenerate casually: new goldens only prove self-consistency of
the current code.  Regenerate ONLY after an intentional change to the
encoding, pruning, validity rules or the cell hash, and say so in the
commit message.

Run:  PYTHONPATH=src python tests/data/generate_decode_goldens.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.nasbench.encoding import CellEncoding

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "decode_goldens.json"

#: Encodings decoded for every action vector.
EXHAUSTIVE_VERTICES = (2, 3, 4, 5)
#: The seeded sample of the default encoding.
SAMPLE_VERTICES = 7
SAMPLE_SIZE = 5000
SAMPLE_SEED = 0


def action_vectors(name: str) -> list[list[int]]:
    """The action vectors of golden ``name`` (``v<N>`` or ``v7_sample``)."""
    if name == f"v{SAMPLE_VERTICES}_sample":
        encoding = CellEncoding(max_vertices=SAMPLE_VERTICES)
        rng = np.random.default_rng(SAMPLE_SEED)
        return rng.integers(
            0, encoding.vocab_sizes, size=(SAMPLE_SIZE, encoding.num_tokens)
        ).tolist()
    encoding = CellEncoding(max_vertices=int(name[1:]))
    return [
        list(vector)
        for vector in itertools.product(*(range(v) for v in encoding.vocab_sizes))
    ]


def encoding_for(name: str) -> CellEncoding:
    return CellEncoding(max_vertices=int(name[1:].split("_")[0]))


def spec_row(spec) -> bytes:
    """Everything one decoded spec pins, as one line."""
    row = (
        spec.valid,
        spec.invalid_reason,
        spec.original_matrix.tobytes(),
        spec.original_ops,
        spec.matrix.tobytes(),
        spec.ops,
        spec.spec_hash() if spec.valid else "invalid",
    )
    return repr(row).encode() + b"\n"


def decode_digest(encoding: CellEncoding, vectors: Iterable[Sequence[int]]) -> str:
    """md5 over the rows of every spec ``encoding`` decodes, in order."""
    digest = hashlib.md5()
    for vector in vectors:
        digest.update(spec_row(encoding.decode(vector)))
    return digest.hexdigest()


def names() -> list[str]:
    return [f"v{n}" for n in EXHAUSTIVE_VERTICES] + [f"v{SAMPLE_VERTICES}_sample"]


def main() -> None:
    goldens = {}
    for name in names():
        vectors = action_vectors(name)
        goldens[name] = {
            "vectors": len(vectors),
            "md5": decode_digest(encoding_for(name), vectors),
        }
    GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    for name, entry in goldens.items():
        print(f"{name}: {entry}")


if __name__ == "__main__":
    main()
