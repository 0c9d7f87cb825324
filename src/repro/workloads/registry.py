"""The workload registry: pluggable model families for the codesign loop.

A *workload* is the model half of the joint search space, packaged the
same way hardware platforms are (:mod:`repro.hw.platform`): a named
recipe that supplies

* the controller-facing **encoding** of the model space (duck-typed
  like :class:`repro.nasbench.CellEncoding` — ``num_tokens`` /
  ``vocab_sizes`` / ``decode`` / ``encode``),
* the **compile function** lowering a decoded spec to the IR the
  hardware platforms schedule (``compile(spec, skeleton) -> IR``),
* the **accuracy sources** that can score its specs (names in the
  :mod:`repro.core.evaluator` registry) and which one is the default,
* the **platforms** whose latency models understand its IR.

The historical CNN-cell stack registers as the ``cnn-cell`` reference
workload; studies that never name a workload resolve to it and stay
bit-identical to every archived pre-workload run.  New model families
(the ``transformer`` GEMM workload) plug in without touching the
search loop: :func:`repro.core.study.build_study` resolves the named
workload, injects its encoding into the joint space and its compile
function into the evaluator, and everything downstream is generic.
The table is a :class:`repro.utils.registry.Registry`, like every other
recipe table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.utils.registry import Registry

__all__ = [
    "DEFAULT_WORKLOAD",
    "Workload",
    "WorkloadError",
    "register_workload",
    "get_workload",
    "list_workloads",
    "default_workload",
]

#: The workload every spec without an explicit ``workload`` field
#: resolves to — the paper's original CNN-cell space.
DEFAULT_WORKLOAD = "cnn-cell"


class WorkloadError(ValueError):
    """A workload name could not be resolved, or a recipe is invalid."""


@dataclass(frozen=True)
class Workload:
    """One registered model family.

    ``encoding_factory(bundle)`` builds the controller encoding; table-
    backed workloads read it off the enumerated-space bundle when one
    is given (so study resumption reuses the bundle's exact space) and
    fall back to their default encoding otherwise.
    """

    name: str
    description: str
    encoding_factory: Callable
    compile: Callable
    default_accuracy_source: str
    accuracy_sources: tuple[str, ...]
    platforms: tuple[str, ...]
    is_reference: bool = False

    def encoding(self, bundle=None):
        """The model-space encoding (from ``bundle`` when applicable)."""
        return self.encoding_factory(bundle)

    def supports_platform(self, platform_name: str) -> bool:
        """Whether a platform's latency model understands this IR."""
        return platform_name in self.platforms

    def describe(self) -> dict:
        """JSON-ready summary (mirrors ``HardwarePlatform.describe``)."""
        encoding = self.encoding()
        return {
            "name": self.name,
            "description": self.description,
            "num_tokens": encoding.num_tokens,
            "vocab_sizes": list(encoding.vocab_sizes),
            "space_size": encoding.space_size,
            "default_accuracy_source": self.default_accuracy_source,
            "accuracy_sources": list(self.accuracy_sources),
            "platforms": list(self.platforms),
            "is_reference": self.is_reference,
        }


_WORKLOADS: Registry[Workload] = Registry("workload", WorkloadError)


def register_workload(
    name: str,
    description: str,
    encoding_factory: Callable,
    compile: Callable,
    default_accuracy_source: str,
    accuracy_sources: tuple[str, ...],
    platforms: tuple[str, ...],
    is_reference: bool = False,
    overwrite: bool = False,
) -> Workload:
    """Register a workload under ``name``."""
    if default_accuracy_source not in accuracy_sources:
        raise WorkloadError(
            f"workload {name!r}: default accuracy source "
            f"{default_accuracy_source!r} is not among its sources "
            f"{sorted(accuracy_sources)}"
        )
    if not platforms:
        raise WorkloadError(f"workload {name!r} names no compatible platform")
    workload = Workload(
        name=name,
        description=description,
        encoding_factory=encoding_factory,
        compile=compile,
        default_accuracy_source=default_accuracy_source,
        accuracy_sources=tuple(accuracy_sources),
        platforms=tuple(platforms),
        is_reference=is_reference,
    )
    return _WORKLOADS.register(name, workload, overwrite)


def list_workloads() -> list[str]:
    """Registered workload names, sorted."""
    return _WORKLOADS.names()


def get_workload(name: str) -> Workload:
    return _WORKLOADS.get(name)


def default_workload() -> Workload:
    """The reference ``cnn-cell`` workload."""
    return get_workload(DEFAULT_WORKLOAD)
