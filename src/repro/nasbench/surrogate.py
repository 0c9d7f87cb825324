"""Calibrated surrogate for NASBench-101's precomputed CIFAR-10 metrics.

The paper reads accuracy (and training time) for every cell out of the
NASBench-101 database.  That database is not available offline, so this
module provides a **deterministic response surface** over interpretable
cell features, calibrated to NASBench's published statistics:

* accuracies concentrate in the high-80s to mid-94s with a ~94.5-95%
  ceiling (Fig. 4's Pareto band spans 91-94.5%);
* deeper cells and conv3x3-rich cells are more accurate; pooling-heavy
  and projection-only cells fall off; capacity (parameters) helps with
  diminishing returns — so accuracy correlates positively with
  latency/area pressure, which is what produces the paper's three-way
  tradeoff;
* per-cell "training noise" is drawn deterministically from the cell's
  canonical hash, so repeated queries agree and experiments reproduce.

The surrogate is *not* claimed to predict real NASBench numbers; it
preserves the statistical shape the search and Pareto analyses consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nasbench import graph_util
from repro.nasbench.compile import compile_cell_ops
from repro.nasbench.model_spec import ModelSpec
from repro.nasbench.ops import CONV1X1, CONV3X3, MAXPOOL3X3
from repro.nasbench.skeleton import CIFAR10_SKELETON, SkeletonConfig
from repro.utils.rng import hash_seed

__all__ = ["CellFeatures", "extract_features", "Cifar10Surrogate"]


@dataclass(frozen=True)
class CellFeatures:
    """Interpretable cell descriptors feeding the surrogates."""

    num_vertices: int
    num_edges: int
    depth: int          # vertices on the longest input->output path
    width: int          # max vertices sharing a topological layer
    n_conv3x3: int
    n_conv1x1: int
    n_maxpool: int
    has_output_skip: bool
    log10_params: float
    giga_macs: float

    @property
    def n_interior(self) -> int:
        return self.n_conv3x3 + self.n_conv1x1 + self.n_maxpool

    def as_vector(self) -> np.ndarray:
        return np.array(
            [
                self.num_vertices,
                self.num_edges,
                self.depth,
                self.width,
                self.n_conv3x3,
                self.n_conv1x1,
                self.n_maxpool,
                float(self.has_output_skip),
                self.log10_params,
                self.giga_macs,
            ],
            dtype=np.float64,
        )


def extract_features(
    spec: ModelSpec, skeleton: SkeletonConfig = CIFAR10_SKELETON
) -> CellFeatures:
    """Compute :class:`CellFeatures` for a valid spec."""
    if not spec.valid:
        raise ValueError("cannot featurize an invalid spec")
    ir = compile_cell_ops(spec, skeleton)
    counts = spec.op_counts()
    layers = graph_util.topological_layers(spec.matrix)
    width = max(np.bincount(np.asarray(layers))) if layers else 1
    return CellFeatures(
        num_vertices=spec.num_vertices,
        num_edges=spec.num_edges,
        depth=spec.depth(),
        width=int(width),
        n_conv3x3=counts[CONV3X3],
        n_conv1x1=counts[CONV1X1],
        n_maxpool=counts[MAXPOOL3X3],
        has_output_skip=spec.has_output_skip(),
        log10_params=float(np.log10(max(ir.total_params, 1))),
        giga_macs=ir.total_macs / 1e9,
    )


@dataclass(frozen=True)
class Cifar10Surrogate:
    """Deterministic CIFAR-10 validation/test accuracy + training time.

    Parameters
    ----------
    seed:
        Global seed folded into every cell's noise draw; two surrogates
        with the same seed agree exactly on every cell.
    noise_std:
        Std-dev (percentage points) of the per-cell training noise.
        NASBench's run-to-run validation std is a few tenths of a point.
    """

    seed: int = 101
    noise_std: float = 0.25
    ceiling: float = 95.1
    floor: float = 80.0

    # --- calibrated response surface -----------------------------------
    def _mean_accuracy(self, f: CellFeatures) -> float:
        """Noise-free validation accuracy (percent)."""
        acc = 92.5
        # Depth: shallow cells lose the most; saturates around depth 6.
        acc -= 5.5 * np.exp(-0.9 * (f.depth - 2))
        # Conv3x3s carry the representational power; conv1x1s help less.
        acc += 1.1 * (1.0 - np.exp(-0.7 * f.n_conv3x3))
        acc += 0.3 * (1.0 - np.exp(-0.6 * f.n_conv1x1))
        # Pool-heavy cells lose accuracy (no learnable weights).
        acc -= 1.8 * (f.n_maxpool / max(f.n_interior, 1)) ** 2
        # Capacity with diminishing returns; ~10^6.7 params is typical.
        acc += 1.2 * np.tanh(0.7 * (f.log10_params - 6.7))
        # Residual-style skip into the output helps optimization.
        if f.has_output_skip:
            acc += 0.35
        # Mild benefit from parallel branches (ensembling effect).
        acc += 0.25 * min(f.width - 1, 3)
        return float(acc)

    def _noise(self, spec_hash: str, tag: str) -> float:
        rng = np.random.default_rng(hash_seed("c10", self.seed, spec_hash, tag))
        return float(rng.normal(0.0, self.noise_std))

    def _validation_accuracy(self, f: CellFeatures, spec_hash: str) -> float:
        raw = self._mean_accuracy(f) + self._noise(spec_hash, "val")
        return float(np.clip(raw, self.floor, self.ceiling))

    def _test_accuracy(self, f: CellFeatures, spec_hash: str) -> float:
        gap = 0.35 + abs(self._noise(spec_hash, "gap")) * 0.5
        raw = self._mean_accuracy(f) + self._noise(spec_hash, "val") - gap
        return float(np.clip(raw, self.floor - 1.0, self.ceiling))

    def _training_seconds(self, f: CellFeatures, spec_hash: str) -> float:
        base = 550.0 + 900.0 * f.giga_macs
        jitter = 1.0 + 0.05 * self._noise(spec_hash, "time") / max(self.noise_std, 1e-9)
        return float(base * max(jitter, 0.5))

    # --- public API -----------------------------------------------------
    def validation_accuracy(self, spec: ModelSpec) -> float:
        """Deterministic validation accuracy in percent."""
        return self._validation_accuracy(extract_features(spec), spec.spec_hash())

    def test_accuracy(self, spec: ModelSpec) -> float:
        """Test accuracy: validation minus a small deterministic gap."""
        return self._test_accuracy(extract_features(spec), spec.spec_hash())

    def training_seconds(self, spec: ModelSpec) -> float:
        """Simulated 108-epoch training wall-clock (single GPU)."""
        return self._training_seconds(extract_features(spec), spec.spec_hash())

    def statistics(
        self, features: CellFeatures, spec_hash: str
    ) -> tuple[float, float, float]:
        """Validation accuracy, test accuracy and training seconds of a cell.

        The three per-spec methods' arithmetic, from the cell's features
        and ``spec_hash`` computed once by the caller.
        """
        return (
            self._validation_accuracy(features, spec_hash),
            self._test_accuracy(features, spec_hash),
            self._training_seconds(features, spec_hash),
        )
