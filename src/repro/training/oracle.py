"""Training-oracle interface: what "train this CNN and score it" returns.

Section IV has no precomputed database — every sampled cell is trained
from scratch.  Anything that can do that implements
:class:`TrainingOracle`; this repo ships the calibrated surrogate
:class:`repro.training.surrogate_trainer.SurrogateCifar100Trainer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.nasbench.model_spec import ModelSpec

__all__ = ["TrainOutcome", "TrainingOracle"]


@dataclass(frozen=True)
class TrainOutcome:
    """Result of training one cell to completion."""

    accuracy: float        # top-1 test accuracy, percent
    gpu_hours: float       # simulated single-GPU cost of this run

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 100.0:
            raise ValueError("accuracy must be a percentage")
        if self.gpu_hours < 0:
            raise ValueError("gpu_hours must be non-negative")


class TrainingOracle(Protocol):
    """Protocol for CIFAR-100-style train-and-score backends."""

    def train_and_score(self, spec: ModelSpec) -> TrainOutcome:
        """Train ``spec``'s network from scratch and report accuracy."""
        ...
