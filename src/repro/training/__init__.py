"""Training oracles: the surrogate CIFAR-100 trainer and the cached wrapper."""

from repro.training.cache import TRAIN_CONFIG_KEY, CachedTrainer
from repro.training.oracle import TrainingOracle, TrainOutcome
from repro.training.surrogate_trainer import CIFAR100_ANCHORS, SurrogateCifar100Trainer

__all__ = [
    "TRAIN_CONFIG_KEY",
    "CachedTrainer",
    "TrainingOracle",
    "TrainOutcome",
    "CIFAR100_ANCHORS",
    "SurrogateCifar100Trainer",
]
