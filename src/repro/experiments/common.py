"""Shared experiment infrastructure: enumeration bundles and scaling.

The Section III experiments all consume the same enumerated joint
space: the exhaustive micro cell database crossed with the full 8640
accelerator configurations.  :func:`load_bundle` builds that once —
accuracy vector, area vector, and the full latency matrix via the
vectorized scheduler — and caches it in memory and on disk.  The matrix
takes ~1.5 minutes to compute from scratch; only it is cached on disk,
so a warm load in a fresh process still enumerates the cells and builds
their database: ~4 s for the micro-5 space on a 2-vCPU VM, of which
reading the matrix is ~0.3 s.

Experiment *scale* is controlled by the ``REPRO_SCALE`` environment
variable:

=========  =========  ========  ==============================
scale      steps      repeats   intended use
=========  =========  ========  ==============================
smoke      300        1         CI / unit-test speed
default    1500       3         pytest-benchmark runs
paper      10000      10        full paper-fidelity runs
=========  =========  ========  ==============================
"""

from __future__ import annotations

import hashlib
import os
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.accelerator.space import AcceleratorSpace
from repro.core.reward import MetricBounds
from repro.hw import default_platform
from repro.nasbench.compile import compile_cell_ops
from repro.nasbench.database import CellDatabase, enumerate_unique_cells
from repro.nasbench.encoding import CellEncoding
from repro.nasbench.skeleton import CIFAR10_SKELETON

__all__ = [
    "Scale",
    "SpaceBundle",
    "load_bundle",
    "default_cache_dir",
    "eval_cache_path",
]

_BUNDLE_MEMO: dict[tuple, "SpaceBundle"] = {}


@dataclass(frozen=True)
class Scale:
    """Experiment sizing knobs."""

    name: str
    search_steps: int
    num_repeats: int
    fig7_target_scale: float  # multiplies the per-rung valid-point targets

    @classmethod
    def named(cls, name: str) -> "Scale":
        """The shipped sizing preset called ``name`` (smoke/default/paper)."""
        presets = {
            "smoke": cls("smoke", 300, 1, 0.1),
            "default": cls("default", 1500, 3, 0.25),
            "paper": cls("paper", 10000, 10, 1.0),
        }
        if name not in presets:
            raise ValueError(
                f"scale must be one of {sorted(presets)}, got {name!r}"
            )
        return presets[name]

    @classmethod
    def from_env(cls, default: str = "default") -> "Scale":
        name = os.environ.get("REPRO_SCALE", default).lower()
        try:
            return cls.named(name)
        except ValueError:
            raise ValueError(
                f"REPRO_SCALE must be one of ['default', 'paper', 'smoke'], "
                f"got {name!r}"
            ) from None


def default_cache_dir() -> Path:
    """On-disk cache location (override with ``REPRO_CACHE_DIR``)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return Path(root)
    return Path(__file__).resolve().parents[3] / ".cache" / "repro"


def eval_cache_path(cache_dir: Path | None = None) -> Path:
    """Location of the shared persistent evaluation store.

    One sqlite file serves every experiment: search evaluations and
    Section IV training outcomes live in separate namespaces inside it
    (see :class:`repro.parallel.EvalCache`).
    """
    return (cache_dir or default_cache_dir()) / "eval_cache.sqlite"


@dataclass
class SpaceBundle:
    """The enumerated joint space the Section III experiments share."""

    database: CellDatabase
    cell_encoding: CellEncoding
    space: AcceleratorSpace
    accuracy: np.ndarray       # (Nc,) percent
    area_mm2: np.ndarray       # (space.size,)
    latency_ms: np.ndarray     # (Nc, space.size)
    bounds: MetricBounds
    platform: object = None    # the repro.hw platform that enumerated it

    @property
    def num_pairs(self) -> int:
        return int(self.latency_ms.size)

    def row_of_hash(self) -> dict[str, int]:
        return {rec.spec_hash: i for i, rec in enumerate(self.database.records)}

    def perf_per_area(self) -> np.ndarray:
        """(Nc, 8640) img/s/cm2 for every pair."""
        return (1000.0 / self.latency_ms) / (self.area_mm2[None, :] / 100.0)


def _read_cached_latency(path: Path, shape: tuple[int, int]) -> np.ndarray | None:
    """The cached latency matrix as float64; ``None`` on a miss.

    A missing file, a file of another shape and an unreadable one (say,
    a write cut short by a killed process) are all misses: the caller
    rebuilds the matrix and rewrites the file.
    """
    try:
        with np.load(path) as cached:
            latency_ms = cached["latency_ms"]
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile, zlib.error):
        return None
    if latency_ms.shape != shape:
        return None
    return latency_ms.astype(np.float64)


def _write_cached_latency(path: Path, latency_ms: np.ndarray) -> None:
    """Atomic write: pid-suffixed tmp sibling + ``os.replace``.

    Readers see either no file or a whole one, even when several
    processes build the same bundle at once.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}.npz")
    try:
        np.savez_compressed(tmp, latency_ms=latency_ms.astype(np.float32))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_bundle(
    max_vertices: int = 5,
    use_disk_cache: bool = True,
    cache_dir: Path | None = None,
    platform=None,
) -> SpaceBundle:
    """Build (or reload) the enumerated micro-space bundle.

    ``platform`` (a :class:`repro.hw.HardwarePlatform`) supplies the
    area/latency models and the configuration space; the default is
    the reference ``dac2020`` platform, whose bundle is bit-identical
    to the pre-platform builds (and shares their disk cache files).
    Non-reference platforms cache under a namespace-tagged filename so
    differently modelled bundles never collide on disk.
    """
    platform = platform or default_platform()
    key = (max_vertices, platform.cache_namespace())
    if key in _BUNDLE_MEMO:
        return _BUNDLE_MEMO[key]

    database = CellDatabase.from_specs(enumerate_unique_cells(max_vertices))
    space = platform.config_space()
    cols = space.columns()
    # Vectorized over the full space; bit-identical to the per-config
    # path (tests/accelerator/test_area.py::TestBatchArea).
    area_mm2 = platform.batch_area_mm2(cols)
    accuracy = database.accuracies()

    cache_dir = cache_dir or default_cache_dir()
    tag = (
        ""
        if platform.is_reference
        else "_" + hashlib.md5(platform.cache_namespace().encode()).hexdigest()[:10]
    )
    cache_file = (
        cache_dir / f"bundle_v{max_vertices}_n{len(database)}_h{space.size}{tag}.npz"
    )
    latency_ms: np.ndarray | None = None
    if use_disk_cache:
        latency_ms = _read_cached_latency(cache_file, (len(database), space.size))
    if latency_ms is None:
        latency_ms = np.empty((len(database), space.size), dtype=np.float64)
        for i, record in enumerate(database.records):
            ir = compile_cell_ops(record.spec, CIFAR10_SKELETON)
            latency_ms[i] = platform.batch_network_latency_s(ir, cols) * 1e3
        # The disk cache stores float32; round-trip the fresh build
        # through the same precision so the first run of a bundle is
        # bit-identical to every warm reload after it.
        latency_ms = latency_ms.astype(np.float32).astype(np.float64)
        if use_disk_cache:
            _write_cached_latency(cache_file, latency_ms)

    bounds = MetricBounds.from_arrays(area_mm2, latency_ms, accuracy)
    bundle = SpaceBundle(
        database=database,
        cell_encoding=CellEncoding(max_vertices=max_vertices),
        space=space,
        accuracy=accuracy,
        area_mm2=area_mm2,
        latency_ms=latency_ms,
        bounds=bounds,
        platform=platform,
    )
    _BUNDLE_MEMO[key] = bundle
    return bundle
