"""Surrogate CIFAR-100 trainer (the Section IV substitution).

The paper trains every sampled cell for 108 epochs (~1 GPU-hour each,
48 GPUs in parallel).  Offline we replace that inner loop with a
deterministic response surface over the same cell features as the
CIFAR-10 surrogate, **pinned to the paper's Table II anchors**:

=================  ==========  ======================================
cell               accuracy    source
=================  ==========  ======================================
ResNet cell        72.9 %      Table II row 1
GoogLeNet cell     71.5 %      Table II row 3
Cod-1              74.2 %      Table II row 2
Cod-2              72.0 %      Table II row 4
=================  ==========  ======================================

Pinning is a small additive correction (< 0.7 points) on top of the
surface, so the anchors are exact while the rest of the space keeps a
smooth, NASBench-like landscape whose maximum (~75.5%) matches Fig. 7's
upper range.  Each training run adds deterministic per-cell noise
(run-to-run variance) and reports its simulated GPU-hours
(:meth:`SurrogateCifar100Trainer.gpu_hours`), so search budgets are
measurable the way the paper reports them (~1000 GPU-hours to reach
Cod-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nasbench.known_cells import KNOWN_CELLS
from repro.nasbench.model_spec import ModelSpec
from repro.nasbench.surrogate import CellFeatures, extract_features
from repro.training.oracle import TrainOutcome
from repro.utils.rng import hash_seed

__all__ = ["SurrogateCifar100Trainer", "CIFAR100_ANCHORS"]

#: Paper Table II accuracy anchors (percent).
CIFAR100_ANCHORS = {
    "resnet": 72.9,
    "googlenet": 71.5,
    "cod1": 74.2,
    "cod2": 72.0,
}


def _surface(f: CellFeatures) -> float:
    """Noise-free CIFAR-100 accuracy surface (percent)."""
    acc = 72.4
    acc -= 9.0 * np.exp(-0.9 * (f.depth - 2))
    acc += 1.9 * (1.0 - np.exp(-0.7 * f.n_conv3x3))
    acc += 0.45 * (1.0 - np.exp(-0.6 * f.n_conv1x1))
    acc -= 2.5 * (f.n_maxpool / max(f.n_interior, 1)) ** 2
    acc += 2.0 * np.tanh(0.75 * (f.log10_params - 6.9))
    if f.has_output_skip:
        acc += 0.6
    acc += 0.35 * min(f.width - 1, 3)
    return float(acc)


@dataclass
class SurrogateCifar100Trainer:
    """Deterministic stand-in for from-scratch CIFAR-100 training."""

    seed: int = 100
    noise_std: float = 0.3
    gpu_hours_per_gmac: float = 0.45
    gpu_hours_base: float = 0.45
    floor: float = 55.0
    ceiling: float = 76.5
    num_trainings: int = field(default=0, init=False)
    _anchor_offsets: dict[str, float] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        for name, target in CIFAR100_ANCHORS.items():
            spec = KNOWN_CELLS[name]()
            surface = _surface(extract_features(spec))
            self._anchor_offsets[spec.spec_hash()] = target - surface

    # ------------------------------------------------------------------
    def cache_namespace(self) -> str:
        """Store namespace pinning every outcome-affecting parameter.

        The ``cifar100-trainer`` accuracy source persists training
        outcomes under it (and keys the study's eval-cache rows by it),
        so differently configured trainers never share rows.
        """
        return (
            f"train/cifar100/seed{self.seed}/noise{self.noise_std:g}"
            f"/gpu{self.gpu_hours_base:g}+{self.gpu_hours_per_gmac:g}"
            f"/clip{self.floor:g}-{self.ceiling:g}"
        )

    def mean_accuracy(self, spec: ModelSpec) -> float:
        """Noise-free accuracy (anchored surface), percent."""
        if not spec.valid:
            raise ValueError("cannot train an invalid spec")
        return self._mean_accuracy(extract_features(spec), spec.spec_hash())

    def _mean_accuracy(self, features: CellFeatures, spec_hash: str) -> float:
        value = _surface(features)
        value += self._anchor_offsets.get(spec_hash, 0.0)
        return float(np.clip(value, self.floor, self.ceiling))

    def gpu_hours(self, features: CellFeatures) -> float:
        """Simulated GPU-hours of one training run of a cell."""
        return self.gpu_hours_base + self.gpu_hours_per_gmac * features.giga_macs

    def train_and_score(self, spec: ModelSpec) -> TrainOutcome:
        """One simulated training run (deterministic per cell+seed)."""
        if not spec.valid:
            raise ValueError("cannot train an invalid spec")
        features = extract_features(spec)
        spec_hash = spec.spec_hash()
        mean = self._mean_accuracy(features, spec_hash)
        rng = np.random.default_rng(hash_seed("c100", self.seed, spec_hash))
        accuracy = float(
            np.clip(mean + rng.normal(0.0, self.noise_std), self.floor, self.ceiling)
        )
        self.num_trainings += 1
        return TrainOutcome(accuracy=accuracy, gpu_hours=self.gpu_hours(features))

    # ------------------------------------------------------------------
    def accuracy_fn(self, spec: ModelSpec) -> float | None:
        """Adapter for :class:`repro.core.CodesignEvaluator`.

        The evaluator memoizes per cell, so each distinct cell is
        "trained" exactly once per search — as in the paper.
        """
        if not spec.valid:
            return None
        return self.train_and_score(spec).accuracy
