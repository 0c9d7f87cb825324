"""Regenerate the pinned enumerated-space goldens.

``space_goldens.json`` freezes SHA-256 digests of the Section III
enumeration that every ``database``-source study rebuilds:

* ``micro5_records`` — the records of ``CellDatabase.nasbench_micro()``
  in order: each record's original matrix (shape and bytes), original
  ops, ``spec_hash``, ``CellFeatures`` (floats as ``float.hex``) and its
  validation accuracy, test accuracy and training seconds as
  ``float.hex``;
* ``micro4_front`` and ``micro5_front`` — the five arrays of
  ``product_space_pareto`` over ``load_bundle(4)`` and ``load_bundle(5)``
  (dtype, shape and bytes, in order).

The file was generated before the enumeration, the database build and
the product-space Pareto stopped repeating work, so the tests
(``tests/experiments/test_space_goldens.py``) hold the faster paths to
the old results bit for bit, record order and front order included.
The cached bundle's rows match database records by position, so the
record order is load-bearing.

Do not regenerate casually: new goldens only prove self-consistency of
the current code.  Regenerate ONLY after an intentional change to the
cell space, the CIFAR-10 surrogate or the hardware models, and say so
in the commit message.

Run:  PYTHONPATH=src python tests/data/generate_space_goldens.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.pareto import product_space_pareto
from repro.experiments.common import load_bundle
from repro.nasbench.database import CellDatabase

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "space_goldens.json"

#: The arrays of a ProductParetoResult, in digest order.
FRONT_FIELDS = ("cell_indices", "config_indices", "accuracy", "latency_ms", "area_mm2")


def _exact(value):
    """JSON-safe value that keeps every bit of a float."""
    return float(value).hex() if isinstance(value, float) else value


def record_row(record) -> dict:
    """Everything one database record pins, exactly."""
    spec = record.spec
    return {
        "shape": list(spec.original_matrix.shape),
        "matrix": spec.original_matrix.tobytes().hex(),
        "ops": list(spec.original_ops),
        "spec_hash": record.spec_hash,
        "features": {
            f.name: _exact(getattr(record.features, f.name))
            for f in dataclasses.fields(record.features)
        },
        "stats": [
            float(record.validation_accuracy).hex(),
            float(record.test_accuracy).hex(),
            float(record.training_seconds).hex(),
        ],
    }


def records_digest(database: CellDatabase) -> str:
    """SHA-256 over the database's records, one JSON line each, in order."""
    digest = hashlib.sha256()
    for record in database.records:
        digest.update(json.dumps(record_row(record), sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def front_digest(front) -> str:
    """SHA-256 over the front's five arrays: dtype, shape and bytes."""
    digest = hashlib.sha256()
    for name in FRONT_FIELDS:
        array = np.ascontiguousarray(getattr(front, name))
        digest.update(f"{name}:{array.dtype.str}:{array.shape}\n".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def bundle_front(bundle):
    return product_space_pareto(bundle.accuracy, bundle.area_mm2, bundle.latency_ms)


def main() -> None:
    database = CellDatabase.nasbench_micro()
    goldens = {
        "micro5_records": {
            "count": len(database),
            "sha256": records_digest(database),
        }
    }
    for max_vertices in (4, 5):
        front = bundle_front(load_bundle(max_vertices))
        goldens[f"micro{max_vertices}_front"] = {
            "num_points": front.num_points,
            "sha256": front_digest(front),
        }
    GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    for name, entry in goldens.items():
        print(f"{name}: {entry}")


if __name__ == "__main__":
    main()
