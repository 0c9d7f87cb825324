"""Fig. 4 workflow: enumerate the joint space, extract the Pareto
frontier, and inspect the three-way accuracy/latency/area tradeoff.

Run:  python examples/pareto_exploration.py
(The first run enumerates the space and computes the full latency
matrix and the frontier, ~1-2 minutes; afterwards all three reload
from the on-disk cache.)
"""

import numpy as np

from repro.experiments import load_bundle
from repro.utils.tables import format_ascii


def main() -> None:
    bundle = load_bundle(max_vertices=5)
    print(f"Joint space: {len(bundle.database)} cells x {bundle.space.size} "
          f"accelerators = {bundle.num_pairs:,} pairs")

    front = bundle.front
    fraction = front.num_points / bundle.num_pairs
    print(f"Pareto frontier: {front.num_points} points ({fraction:.2e} of the space)")
    print(f"  spanning {front.num_distinct_cells()} distinct cells and "
          f"{front.num_distinct_configs()} distinct accelerators")

    # Accuracy-latency staircases per area band (Fig. 4's concentric curves).
    bands = [(50, 90), (90, 130), (130, 210)]
    for lo, hi in bands:
        mask = (front.area_mm2 >= lo) & (front.area_mm2 < hi)
        if not mask.any():
            continue
        order = np.argsort(front.latency_ms[mask])
        rows = [
            (
                round(float(front.latency_ms[mask][i]), 1),
                round(float(front.accuracy[mask][i]), 2),
                round(float(front.area_mm2[mask][i]), 1),
            )
            for i in order[:: max(1, mask.sum() // 8)][:8]
        ]
        print(f"\nArea band {lo}-{hi} mm2 ({int(mask.sum())} Pareto points):")
        print(format_ascii(["latency_ms", "accuracy_%", "area_mm2"], rows))

    # The paper's headline: a vanishing fraction of the space is optimal.
    assert fraction < 1e-3


if __name__ == "__main__":
    main()
