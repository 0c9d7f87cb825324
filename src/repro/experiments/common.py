"""Shared experiment infrastructure: enumeration bundles and scaling.

The Section III experiments all consume the same enumerated joint
space: the exhaustive micro cell database crossed with the full 8640
accelerator configurations, scored against the exact Pareto front of
that product.  :func:`load_bundle` builds it once, memoizes it per
process and stores it on disk as one ``.npz`` file: the cell table
(each record's spec, hash, features and surrogate CIFAR-10
statistics: the stand-in for the NASBench-101 table the paper reads),
the full latency matrix and the front.  On a 2-vCPU VM a cold micro-5
build takes ~80 s, most of it the latency sweep; a warm load in a
fresh process reads the file in ~0.7 s (about half of that rebuilds
the 2,532 specs through :class:`~repro.nasbench.model_spec.ModelSpec`)
and writes nothing.

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
import json
import os
import re
import zipfile
import zlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from repro.accelerator.space import AcceleratorSpace
from repro.core.pareto import ProductParetoResult, product_space_pareto
from repro.core.reward import MetricBounds
from repro.hw import default_platform
from repro.nasbench.compile import compile_cell_ops
from repro.nasbench.database import CellDatabase, enumerate_unique_cells
from repro.nasbench.encoding import CellEncoding
from repro.nasbench.skeleton import CIFAR10_SKELETON
from repro.nasbench.surrogate import Cifar10Surrogate

__all__ = [
    "Scale",
    "SpaceBundle",
    "load_bundle",
    "default_cache_dir",
    "eval_cache_path",
]

_BUNDLE_MEMO: dict[tuple, "SpaceBundle"] = {}

#: Version of what a stored bundle holds and how it was derived: the
#: cell table's columns, the enumeration order, featurization, the
#: CIFAR-10 surrogate's arithmetic and the front's extraction.  It
#: names every bundle file and is part of its key, so bumping it makes
#: the next load rebuild and delete the old files.  A change to any of
#: those that leaves it alone keeps warm loads serving stale values;
#: ``TestBundle`` in ``tests/experiments/test_experiments.py`` checks
#: the default-cache micro-4 bundle against a fresh build to catch
#: that.
BUNDLE_FORMAT = 1

#: The arrays of a ProductParetoResult, stored as ``front.<name>``.
_FRONT_FIELDS = tuple(f.name for f in fields(ProductParetoResult))


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
    front: ProductParetoResult  # exact Pareto front of the product space
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


def _bundle_key(max_vertices: int, surrogate: Cifar10Surrogate, platform) -> str:
    """Digest of everything a stored bundle's contents depend on."""
    blob = json.dumps(
        {
            "format": BUNDLE_FORMAT,
            "max_vertices": max_vertices,
            "skeleton": asdict(CIFAR10_SKELETON),
            "surrogate": asdict(surrogate),
            "platform": platform.cache_namespace(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _read_bundle(
    path: Path, key: str, surrogate: Cifar10Surrogate, num_configs: int
) -> tuple[CellDatabase, np.ndarray, ProductParetoResult] | None:
    """The stored ``(database, latency_ms, front)``; ``None`` on a miss.

    A missing or unreadable file (say, a write cut short by a killed
    process), a file stored under another key, a missing member and an
    array of the wrong shape are all misses: the caller rebuilds the
    bundle and rewrites the file.
    """
    try:
        with np.load(path) as stored:
            if stored["key"].item() != key:
                return None
            database = CellDatabase.from_columns(stored, surrogate)
            latency_ms = stored["latency_ms"]
            front = ProductParetoResult(
                **{name: stored[f"front.{name}"] for name in _FRONT_FIELDS}
            )
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile, zlib.error):
        return None
    front_shapes = {getattr(front, name).shape for name in _FRONT_FIELDS}
    one_axis = len(front_shapes) == 1 and len(next(iter(front_shapes))) == 1
    if latency_ms.shape != (len(database), num_configs) or not one_axis:
        return None
    return database, latency_ms.astype(np.float64), front


def _write_bundle(
    path: Path,
    key: str,
    database: CellDatabase,
    latency_ms: np.ndarray,
    front: ProductParetoResult,
) -> None:
    """Atomic write: pid-suffixed tmp sibling + ``os.replace``.

    Readers see either no file or a whole one, even when several
    processes build the same bundle at once.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}.npz")
    members = {
        "key": np.array(key),
        "latency_ms": latency_ms.astype(np.float32),
        **database.to_columns(),
        **{f"front.{name}": getattr(front, name) for name in _FRONT_FIELDS},
    }
    try:
        np.savez_compressed(tmp, **members)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _remove_unreadable_bundles(directory: Path) -> None:
    """Delete every ``bundle_*.npz`` in ``directory`` no load can read.

    Only files named for the current :data:`BUNDLE_FORMAT` are ever
    read, so legacy names and other formats go.  Current-format files
    under other keys stay (other platforms and space sizes read them),
    and so do the temp files of writers still in flight.
    """
    readable = re.compile(rf"bundle_f{BUNDLE_FORMAT}_v\d+_[0-9a-f]{{16}}\.npz")
    for path in directory.glob("bundle_*.npz"):
        if not readable.fullmatch(path.name) and ".tmp" not in path.name:
            path.unlink(missing_ok=True)


def load_bundle(
    max_vertices: int = 5,
    cache_dir: Path | None = None,
    platform=None,
) -> SpaceBundle:
    """Load (or build and store) the enumerated micro-space bundle.

    ``platform`` (a :class:`repro.hw.HardwarePlatform`) supplies the
    area/latency models and the configuration space; the default is
    the reference ``dac2020`` platform.  The bundle file under
    ``cache_dir`` (default :func:`default_cache_dir`) is named after
    :data:`BUNDLE_FORMAT`, ``max_vertices`` and a digest of those two,
    the CIFAR-10 skeleton, the surrogate's parameters and the
    platform's ``cache_namespace()``, so differently built bundles
    never collide.  A warm load reads the cell table, latency matrix
    and front from that file and writes nothing; any kind of miss
    rebuilds all three (enumeration, featurization, the latency sweep
    and the front), rewrites the file and deletes the bundle files no
    load of this format can read.  Only the area vector is recomputed
    on every load: it is one vectorized call.
    """
    platform = platform or default_platform()
    directory = Path(cache_dir or default_cache_dir())
    memo_key = (max_vertices, platform.cache_namespace(), directory)
    if memo_key in _BUNDLE_MEMO:
        return _BUNDLE_MEMO[memo_key]

    surrogate = Cifar10Surrogate()
    space = platform.config_space()
    cols = space.columns()
    # Vectorized over the full space; bit-identical to the per-config
    # path (tests/accelerator/test_area.py::TestBatchArea).
    area_mm2 = platform.batch_area_mm2(cols)
    key = _bundle_key(max_vertices, surrogate, platform)
    path = directory / f"bundle_f{BUNDLE_FORMAT}_v{max_vertices}_{key[:16]}.npz"
    stored = _read_bundle(path, key, surrogate, space.size)
    if stored is not None:
        database, latency_ms, front = stored
    else:
        database = CellDatabase.from_specs(
            enumerate_unique_cells(max_vertices), surrogate
        )
        latency_ms = np.empty((len(database), space.size), dtype=np.float64)
        for i, record in enumerate(database.records):
            ir = compile_cell_ops(record.spec, CIFAR10_SKELETON)
            latency_ms[i] = platform.batch_network_latency_s(ir, cols) * 1e3
        # The file stores float32; round-trip the fresh build through
        # the same precision so the first run of a bundle is
        # bit-identical to every warm load after it.
        latency_ms = latency_ms.astype(np.float32).astype(np.float64)
        front = product_space_pareto(database.accuracies(), area_mm2, latency_ms)
        _write_bundle(path, key, database, latency_ms, front)
        _remove_unreadable_bundles(directory)

    accuracy = database.accuracies()
    bounds = MetricBounds.from_arrays(area_mm2, latency_ms, accuracy)
    bundle = SpaceBundle(
        database=database,
        cell_encoding=CellEncoding(max_vertices=max_vertices),
        space=space,
        accuracy=accuracy,
        area_mm2=area_mm2,
        latency_ms=latency_ms,
        front=front,
        bounds=bounds,
        platform=platform,
    )
    _BUNDLE_MEMO[memo_key] = bundle
    return bundle
