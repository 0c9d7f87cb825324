"""Regenerate the pinned hardware-model goldens.

``tensorized_goldens.json`` freezes, for every shipped platform (plus
one non-reference ``dac2020-scaled`` parameterization), the platform's
batched column-wise queries at 16 evenly-spaced config indices:

* ``area_hex``    — ``float.hex()`` of ``batch_area_mm2``,
* ``valid``       — the ``batch_config_valid`` bits, and
* ``latency_hex`` — ``float.hex()`` of the ResNet cell's
  ``batch_network_latency_s``,

plus ``tensorized``, whether the space is under the enumeration cap
(``repro.hw.tensorized.enumerable``).  The differential suite compares
live queries against these strings bit-for-bit, so lockstep drift — an
analytical-model change that moves the batch and scalar paths
together, which the batch==scalar differential tests cannot see —
fails loudly instead of silently rewriting history.

Do not regenerate casually: new goldens only prove self-consistency of
the current code.  Regenerate ONLY after an intentional hardware-model
change, and say so in the commit message.

Run:  PYTHONPATH=src python tests/data/generate_tensorized_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.hw import build_platform, list_platforms
from repro.hw.tensorized import enumerable
from repro.nasbench.compile import compile_cell_ops
from repro.nasbench.known_cells import resnet_cell
from repro.nasbench.skeleton import CIFAR10_SKELETON

HERE = Path(__file__).resolve().parent

NUM_INDICES = 16

#: Platform label -> (registry name, params).  Covers every shipped
#: platform at defaults plus one scaled variant with non-default
#: params, whose namespace (and therefore every metric) differs from
#: the reference model.
PLATFORM_BUILDS: dict[str, tuple[str, dict]] = {
    # surrogate:* platforms are excluded: their drift guard is the fit
    # artifact's probe contract, not pinned slices.
    **{
        name: (name, {})
        for name in list_platforms()
        if not name.startswith("surrogate:")
    },
    "dac2020-scaled@300MHz": ("dac2020-scaled", {"clock_mhz": 300.0}),
}


def pinned_indices(size: int) -> list[int]:
    """Sixteen evenly-spaced indices across the full config space."""
    return sorted(set(np.linspace(0, size - 1, NUM_INDICES).astype(int).tolist()))


def main() -> None:
    resnet_ir = compile_cell_ops(resnet_cell(), CIFAR10_SKELETON)
    goldens: dict[str, dict] = {}
    for label, (name, params) in PLATFORM_BUILDS.items():
        platform = build_platform(name, params or None)
        space = platform.config_space()
        indices = pinned_indices(space.size)
        cols = space.columns_at(np.asarray(indices, dtype=np.int64))
        area = platform.batch_area_mm2(cols)
        valid = platform.batch_config_valid(cols)
        latency = platform.batch_network_latency_s(resnet_ir, cols)
        goldens[label] = {
            "platform": name,
            "params": params,
            "namespace": platform.cache_namespace(),
            "size": space.size,
            "tensorized": enumerable(platform),
            "indices": indices,
            "area_hex": [float(v).hex() for v in area],
            "valid": [bool(v) for v in valid],
            "latency_hex": [float(v).hex() for v in latency],
        }
        print(f"{label}: size={space.size} indices={len(indices)}")
    (HERE / "tensorized_goldens.json").write_text(
        json.dumps(goldens, indent=2) + "\n"
    )
    print(f"wrote {len(goldens)} platform slices")


if __name__ == "__main__":
    main()
