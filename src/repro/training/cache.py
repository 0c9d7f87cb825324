"""Training-result cache.

Wraps any :class:`TrainingOracle` so repeated proposals of the same
cell are free — the paper's searches revisit cells constantly, and only
the first visit trains.

The cache has two layers.  The in-memory dict covers one process
lifetime; an optional :class:`repro.parallel.EvalCache` ``store``
persists outcomes on disk (training rows use the sentinel config key
``"-"`` since accuracy is config-independent, and keep GPU-hours in
the ``extra`` payload).  With a store attached, re-running a Section IV
experiment warm-starts from every cell any earlier run ever trained,
and those warm hits train nothing, exactly like in-memory hits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.nasbench.model_spec import ModelSpec
from repro.parallel.cache import CacheEntry, EvalCache
from repro.training.oracle import TrainingOracle, TrainOutcome

__all__ = ["CachedTrainer", "TRAIN_CONFIG_KEY"]

#: Config-key sentinel for training rows (accuracy ignores hardware).
TRAIN_CONFIG_KEY = "-"


@dataclass
class CachedTrainer:
    """Memoizing wrapper around a training oracle.

    ``store`` / ``namespace`` opt into cross-run persistence; the
    namespace must pin everything the oracle's outcome depends on
    (e.g. surrogate seed and noise level), so differently-configured
    oracles never share rows.
    """

    oracle: TrainingOracle
    store: EvalCache | None = None
    namespace: str = "training"
    _cache: dict[str, TrainOutcome] = field(default_factory=dict, init=False)
    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)

    def train_and_score(self, spec: ModelSpec) -> TrainOutcome:
        key = spec.spec_hash()
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        if self.store is not None:
            row = self.store.get(self.namespace, key, TRAIN_CONFIG_KEY)
            if row is not None and row.accuracy is not None:
                outcome = TrainOutcome(
                    accuracy=row.accuracy,
                    gpu_hours=(row.extra or {}).get("gpu_hours", 0.0),
                )
                self._cache[key] = outcome
                self.hits += 1
                return outcome
        self.misses += 1
        outcome = self.oracle.train_and_score(spec)
        self._cache[key] = outcome
        if self.store is not None:
            self.store.put(
                CacheEntry(
                    self.namespace,
                    key,
                    TRAIN_CONFIG_KEY,
                    accuracy=outcome.accuracy,
                    latency_s=None,
                    area_mm2=None,
                    extra={"gpu_hours": outcome.gpu_hours},
                )
            )
            self.store.flush()
        return outcome

    def accuracy_fn(self, spec: ModelSpec) -> float | None:
        """Adapter for :class:`repro.core.CodesignEvaluator`."""
        if not spec.valid:
            return None
        return self.train_and_score(spec).accuracy

    @property
    def unique_cells_trained(self) -> int:
        return len(self._cache)
