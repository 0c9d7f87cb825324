"""Learned hardware-cost surrogates: ``surrogate:<platform>``.

Spaces beyond :data:`~repro.hw.tensorized.TENSORIZE_MAX_CONFIGS`
configurations are too large to enumerate with the exact scheduler/LUT
hardware path.  Following Shi et al. 2020 ("Learned Hardware/Software
Co-Design of Neural Accelerators"), this module learns the exact models
instead of enumerating them:

* :func:`config_features` / :func:`ir_features` /
  :func:`latency_features` — dense float64 feature matrices from
  platform config columns and compiled-network totals (raw values plus
  physics-shaped interactions like MACs-per-DSP and bytes-per-bus-bit);
* :class:`RidgeRegressor` + :class:`BoostedStumps` — a small,
  deterministic, pure-numpy regressor stack (closed-form ridge on
  standardized features, then gradient-boosted decision stumps on the
  residual), fitted per (platform, metric) in log space;
* :func:`fit_surrogate` — draws seeded samples from the exact
  ``batch_area_mm2`` / ``batch_network_latency_s`` paths and returns a
  JSON-serializable :class:`SurrogateModel` artifact.  The artifact is
  digest-pinned to the base platform's ``cache_namespace()`` *and*
  carries exact probe values; a warm load that disagrees with a fresh
  exact probe pass is silently discarded and refitted, so a drifted
  model never serves a stale fit;
* :class:`SurrogatePlatform` — the full :class:`HardwarePlatform`
  protocol over the fitted models, registered as ``surrogate:<name>``
  for every shipped platform.  Batch and scalar queries agree bit for
  bit because prediction is strictly element-wise (feature columns are
  combined with explicit per-feature accumulation, never a matmul);
* :func:`validate_surrogate` — the error-budget harness behind
  ``repro hw validate-surrogate``: MAE, max relative error, and
  Spearman rank correlation against the exact platform on a held-out
  sample (fresh seed, fresh cells), failing when the stated budget is
  exceeded.

The surrogate is an *estimator*: its metrics are close, not exact, so
it gets its own ``cache_namespace()`` (pinned to the artifact digest —
any refit that changes a weight changes the namespace) and its results
must never be mixed with exact rows.  The two-tier search mode
(:mod:`repro.search.two_tier`) uses it only to rank proposals; every
told/cached/ledgered result still comes from the exact platform.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.accelerator.space import AcceleratorSpace
from repro.hw.platform import (
    HardwarePlatform,
    HardwarePlatformError,
    build_platform,
    list_platforms,
    register_platform,
)
from repro.hw.tensorized import skeleton_token
from repro.nasbench import ops as O
from repro.nasbench.compile import NetworkIR, compile_cell_ops
from repro.nasbench.model_spec import ModelSpec
from repro.nasbench.skeleton import CIFAR10_SKELETON, SkeletonConfig
from repro.utils.rng import hash_seed, make_rng

__all__ = [
    "SURROGATE_PREFIX",
    "DEFAULT_FIT_SAMPLES",
    "DEFAULT_FIT_SEED",
    "DEFAULT_ERROR_BUDGET",
    "FEATURE_VERSION",
    "RidgeRegressor",
    "BoostedStumps",
    "RegressorStack",
    "SurrogateModel",
    "SurrogatePlatform",
    "config_features",
    "ir_features",
    "latency_features",
    "fit_surrogate",
    "surrogate_model_for",
    "register_surrogate_platforms",
    "validate_surrogate",
    "spearman_rank_correlation",
]

#: Registry prefix: ``surrogate:dac2020`` wraps the ``dac2020`` recipe.
SURROGATE_PREFIX = "surrogate:"

#: Default training-sample count / seed used by the registry builders.
DEFAULT_FIT_SAMPLES = 512
DEFAULT_FIT_SEED = 0

#: Bump when the feature extractors change: artifacts fitted against an
#: older featurization must refit, not mispredict.
FEATURE_VERSION = 1

#: The stated error budget ``validate_surrogate`` enforces.  Area is an
#: analytic function of eight tabular parameters, so the stack nearly
#: interpolates it; latency must generalize across unseen *cells*, so
#: its budget is looser.  Rank correlation is the budget that matters
#: for two-tier filtering — a surrogate that orders proposals like the
#: exact model loses nothing when the top slice is re-scored exactly.
DEFAULT_ERROR_BUDGET: dict[str, dict[str, float]] = {
    "area": {"mean_rel_error": 0.05, "max_rel_error": 0.25, "min_rank_corr": 0.97},
    "latency": {"mean_rel_error": 0.25, "max_rel_error": 1.50, "min_rank_corr": 0.90},
}


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

def _col(cols: dict, name: str) -> np.ndarray:
    return np.asarray(cols[name], dtype=np.float64)


def config_features(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Dense ``(n, F)`` float64 feature matrix from config columns.

    Raw parameter values plus the derived quantities the analytic
    models pivot on: the convolution DSP budget and its dual-engine
    split, per-buffer byte capacities, and the reciprocal throughput
    terms (``1/parallelism``, ``1/bus width``) that make latency nearly
    linear in the features.  Strictly element-wise, so row ``i`` of a
    batch equals the single-row matrix of configuration ``i`` bit for
    bit — the property the batch==scalar platform contract rides on.
    """
    filter_par = _col(cols, "filter_par")
    pixel_par = _col(cols, "pixel_par")
    ratio = _col(cols, "ratio_conv_engines")
    in_depth = _col(cols, "input_buffer_depth")
    w_depth = _col(cols, "weight_buffer_depth")
    out_depth = _col(cols, "output_buffer_depth")
    bus = _col(cols, "mem_interface_width")
    pool = _col(cols, "pool_enable")

    total_dsp = filter_par * pixel_par
    dual = ratio < 1.0
    # Mirrors AcceleratorConfig.dsp_split: the 1x1 engine takes
    # ``ratio`` of the pixel lanes (>= 1, <= lanes - 1) when dual.
    lanes_1x1 = np.clip(np.round(ratio * pixel_par), 1.0, pixel_par - 1.0)
    dsp_1x1 = np.where(dual, lanes_1x1 * filter_par, 0.0)
    dsp_3x3 = total_dsp - dsp_1x1
    # Effective budget serving each kind: a single general engine runs
    # both convolution shapes on the full budget.
    eff_3x3 = np.where(dual, dsp_3x3, total_dsp)
    eff_1x1 = np.where(dual, dsp_1x1, total_dsp)

    features = [
        filter_par,
        pixel_par,
        ratio,
        in_depth,
        w_depth,
        out_depth,
        bus,
        pool,
        total_dsp,
        dsp_3x3,
        dsp_1x1,
        np.log2(total_dsp),
        1.0 / total_dsp,
        1.0 / eff_3x3,
        1.0 / eff_1x1,
        1.0 / pixel_par,
        1.0 / filter_par,
        1.0 / bus,
        in_depth * pixel_par,
        w_depth * filter_par,
        out_depth * pixel_par,
        np.log2(in_depth),
        np.log2(w_depth),
        np.log2(out_depth),
        pool / pixel_par,
        dual.astype(np.float64),
    ]
    return np.column_stack(features)


def ir_features(ir: NetworkIR) -> np.ndarray:
    """``(G,)`` float64 totals of a compiled network.

    MACs are split by convolution shape because dual-engine configs
    serve 3x3 and 1x1 work from different DSP pools; byte totals feed
    the memory-bound terms; pooling work is kept separate because
    ``pool_enable`` moves it between fabric and CPU.
    """
    macs_3x3 = 0.0
    macs_1x1 = 0.0
    pool_work = 0.0
    glue_work = 0.0
    in_bytes = 0.0
    out_bytes = 0.0
    weight_bytes = 0.0
    for op in ir.ops:
        if op.kind in (O.KIND_CONV3X3, O.KIND_STEM):
            macs_3x3 += op.macs
        elif op.kind in (O.KIND_CONV1X1, O.KIND_PROJ1X1, O.KIND_DENSE):
            macs_1x1 += op.macs
        elif op.kind in O.POOL_KINDS:
            pool_work += op.work
        else:
            glue_work += op.work
        in_bytes += op.input_bytes
        out_bytes += op.output_bytes
        weight_bytes += op.weight_bytes
    total_macs = macs_3x3 + macs_1x1
    return np.array(
        [
            total_macs,
            macs_3x3,
            macs_1x1,
            pool_work,
            glue_work,
            in_bytes + out_bytes,
            weight_bytes,
            float(len(ir.ops)),
            np.log1p(total_macs),
        ],
        dtype=np.float64,
    )


def latency_features(ir: NetworkIR, cols: dict[str, np.ndarray]) -> np.ndarray:
    """``(n, F)`` joint features of one network across config columns.

    Config features, the network totals broadcast per row, and the
    interaction terms that carry most of the signal: compute work over
    the DSP pool serving it, memory traffic over the bus width, pooling
    work routed by ``pool_enable``.  Element-wise like
    :func:`config_features`.
    """
    cfg = config_features(cols)
    irf = ir_features(ir)
    n = cfg.shape[0]
    total_dsp = cfg[:, 8]
    inv_3x3 = cfg[:, 13]
    inv_1x1 = cfg[:, 14]
    inv_pixel = cfg[:, 15]
    inv_bus = cfg[:, 17]
    pool_col = cfg[:, 7]
    total_macs, macs_3x3, macs_1x1 = irf[0], irf[1], irf[2]
    pool_work, glue_work, act_bytes, weight_bytes = irf[3], irf[4], irf[5], irf[6]

    interactions = [
        total_macs / total_dsp,
        macs_3x3 * inv_3x3,
        macs_1x1 * inv_1x1,
        (macs_3x3 * inv_3x3) + (macs_1x1 * inv_1x1),
        pool_work * pool_col * inv_pixel,
        pool_work * (1.0 - pool_col),
        glue_work * inv_pixel,
        act_bytes * inv_bus,
        weight_bytes * inv_bus,
        (act_bytes + weight_bytes) * inv_bus,
    ]
    broadcast = [np.full(n, value) for value in irf]
    return np.column_stack([cfg] + broadcast + interactions)


# ---------------------------------------------------------------------------
# The regressor stack (pure numpy, deterministic)
# ---------------------------------------------------------------------------

@dataclass
class RidgeRegressor:
    """Closed-form ridge regression on standardized features."""

    mean: np.ndarray
    scale: np.ndarray
    weights: np.ndarray
    intercept: float

    @classmethod
    def fit(cls, X: np.ndarray, y: np.ndarray, lam: float = 1e-3) -> "RidgeRegressor":
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
        Z = (X - mean) / scale
        intercept = float(y.mean())
        centered = y - intercept
        gram = Z.T @ Z + lam * len(y) * np.eye(Z.shape[1])
        weights = np.linalg.solve(gram, Z.T @ centered)
        return cls(mean=mean, scale=scale, weights=weights, intercept=intercept)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Element-wise accumulation: row ``i`` of a batch is bit-identical
        to predicting row ``i`` alone (no matmul — BLAS kernels may sum
        in a shape-dependent order)."""
        acc = np.full(X.shape[0], self.intercept, dtype=np.float64)
        for j in range(X.shape[1]):
            acc = acc + ((X[:, j] - self.mean[j]) / self.scale[j]) * self.weights[j]
        return acc

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "scale": self.scale.tolist(),
            "weights": self.weights.tolist(),
            "intercept": self.intercept,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RidgeRegressor":
        return cls(
            mean=np.asarray(data["mean"], dtype=np.float64),
            scale=np.asarray(data["scale"], dtype=np.float64),
            weights=np.asarray(data["weights"], dtype=np.float64),
            intercept=float(data["intercept"]),
        )


@dataclass
class BoostedStumps:
    """Gradient-boosted depth-1 trees on the ridge residual.

    Each round greedily picks the (feature, threshold) split minimizing
    squared error of the current residual, with deterministic
    tie-breaking (lowest feature index, then lowest split position) so
    refits are bit-reproducible.  Stored as flat ``(feature, threshold,
    left, right)`` rows — trivially JSON-serializable.
    """

    stumps: list[tuple[int, float, float, float]] = field(default_factory=list)

    @classmethod
    def fit(
        cls,
        X: np.ndarray,
        residual: np.ndarray,
        rounds: int = 300,
        learning_rate: float = 0.12,
    ) -> "BoostedStumps":
        n, n_features = X.shape
        residual = residual.astype(np.float64).copy()
        stumps: list[tuple[int, float, float, float]] = []
        if n < 4:
            return cls(stumps)
        orders = [np.argsort(X[:, j], kind="stable") for j in range(n_features)]
        sorted_cols = [X[orders[j], j] for j in range(n_features)]
        # Candidate split positions: boundaries between distinct sorted
        # values (the only places a threshold changes the partition).
        positions = []
        for j in range(n_features):
            xs = sorted_cols[j]
            pos = np.nonzero(xs[1:] != xs[:-1])[0] + 1
            positions.append(pos)
        total = residual.sum()
        for _ in range(rounds):
            best = None  # (gain, j, pos)
            for j in range(n_features):
                pos = positions[j]
                if len(pos) == 0:
                    continue
                r_sorted = residual[orders[j]]
                prefix = np.cumsum(r_sorted)
                left_sum = prefix[pos - 1]
                left_cnt = pos.astype(np.float64)
                right_sum = total - left_sum
                right_cnt = n - left_cnt
                gain = left_sum**2 / left_cnt + right_sum**2 / right_cnt
                k = int(np.argmax(gain))
                if best is None or gain[k] > best[0]:
                    best = (float(gain[k]), j, int(pos[k]))
            if best is None:
                break
            _, j, p = best
            xs = sorted_cols[j]
            threshold = float((xs[p - 1] + xs[p]) / 2.0)
            mask = X[:, j] <= threshold
            left = learning_rate * float(residual[mask].mean())
            right = learning_rate * float(residual[~mask].mean())
            stumps.append((j, threshold, left, right))
            step = np.where(mask, left, right)
            residual = residual - step
            total = residual.sum()
        return cls(stumps)

    def predict(self, X: np.ndarray) -> np.ndarray:
        acc = np.zeros(X.shape[0], dtype=np.float64)
        for j, threshold, left, right in self.stumps:
            acc = acc + np.where(X[:, j] <= threshold, left, right)
        return acc

    def to_dict(self) -> dict:
        return {"stumps": [[j, t, l, r] for j, t, l, r in self.stumps]}

    @classmethod
    def from_dict(cls, data: dict) -> "BoostedStumps":
        return cls(
            stumps=[
                (int(j), float(t), float(l), float(r))
                for j, t, l, r in data["stumps"]
            ]
        )


@dataclass
class RegressorStack:
    """Ridge trend + boosted-stump residual, predicting in log space."""

    ridge: RidgeRegressor
    stumps: BoostedStumps

    @classmethod
    def fit(
        cls, X: np.ndarray, y: np.ndarray, rounds: int = 300
    ) -> "RegressorStack":
        log_y = np.log(y)
        ridge = RidgeRegressor.fit(X, log_y)
        residual = log_y - ridge.predict(X)
        stumps = BoostedStumps.fit(X, residual, rounds=rounds)
        return cls(ridge=ridge, stumps=stumps)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.exp(self.ridge.predict(X) + self.stumps.predict(X))

    def to_dict(self) -> dict:
        return {"ridge": self.ridge.to_dict(), "stumps": self.stumps.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "RegressorStack":
        return cls(
            ridge=RidgeRegressor.from_dict(data["ridge"]),
            stumps=BoostedStumps.from_dict(data["stumps"]),
        )


# ---------------------------------------------------------------------------
# Training cells
# ---------------------------------------------------------------------------

def _canonical_specs() -> list[ModelSpec]:
    """Hand-written valid cells spanning depth, width, and op mix."""
    C3, C1, MP = O.CONV3X3, O.CONV1X1, O.MAXPOOL3X3

    def chain(ops):
        n = len(ops) + 2
        matrix = np.zeros((n, n), dtype=np.int8)
        for i in range(n - 1):
            matrix[i, i + 1] = 1
        return ModelSpec(matrix, [O.INPUT, *ops, O.OUTPUT])

    specs = [
        chain([C3]),
        chain([C1, C1]),
        chain([C3, C1, MP]),
        chain([C3, C3, C3, C1, MP]),
    ]
    # A branchy 6-vertex cell: input fans out to two paths that join.
    matrix = np.zeros((6, 6), dtype=np.int8)
    for src, dst in ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (0, 5), (4, 5)):
        matrix[src, dst] = 1
    specs.append(ModelSpec(matrix, [O.INPUT, C3, C1, C3, MP, O.OUTPUT]))
    return [spec for spec in specs if spec.valid]


def _random_specs(rng: np.random.Generator, count: int) -> list[ModelSpec]:
    """Seeded random valid cells (rejection-sampled)."""
    specs: list[ModelSpec] = []
    interior = list(O.INTERIOR_OPS)
    while len(specs) < count:
        n = int(rng.integers(4, 8))
        matrix = np.triu(
            (rng.random((n, n)) < 0.5).astype(np.int8), k=1
        )
        ops = [O.INPUT] + [
            interior[int(rng.integers(len(interior)))] for _ in range(n - 2)
        ] + [O.OUTPUT]
        spec = ModelSpec(matrix, ops)
        if spec.valid:
            specs.append(spec)
    return specs


def _training_irs(
    skeleton: SkeletonConfig, seed: int, extra_random: int = 3
) -> list[NetworkIR]:
    rng = make_rng(hash_seed("hw-surrogate-cells", seed))
    specs = _canonical_specs() + _random_specs(rng, extra_random)
    return [compile_cell_ops(spec, skeleton) for spec in specs]


# ---------------------------------------------------------------------------
# Per-platform dispatch
# ---------------------------------------------------------------------------
# A platform whose cost structure the CNN-cell featurization cannot
# express (e.g. the tiled-GEMM charm-u50) supplies its own feature
# extractors and training workloads as optional methods; everything
# else falls through to the module-level CNN defaults, keeping the
# dac2020-family fits bit-identical to their pre-hook artifacts.

def _platform_config_features(
    platform: HardwarePlatform, cols: dict[str, np.ndarray]
) -> np.ndarray:
    hook = getattr(platform, "surrogate_config_features", None)
    return hook(cols) if hook is not None else config_features(cols)


def _platform_latency_features(
    platform: HardwarePlatform, ir, cols: dict[str, np.ndarray]
) -> np.ndarray:
    hook = getattr(platform, "surrogate_latency_features", None)
    return hook(ir, cols) if hook is not None else latency_features(ir, cols)


def _platform_training_irs(
    platform: HardwarePlatform, skeleton: SkeletonConfig, seed: int
) -> list:
    hook = getattr(platform, "surrogate_training_irs", None)
    return hook(skeleton, seed) if hook is not None else _training_irs(skeleton, seed)


def _platform_probe_ir(platform: HardwarePlatform, skeleton: SkeletonConfig):
    hook = getattr(platform, "surrogate_probe_ir", None)
    if hook is not None:
        return hook(skeleton)
    return compile_cell_ops(_canonical_specs()[0], skeleton)


def _platform_validation_irs(
    platform: HardwarePlatform,
    rng: np.random.Generator,
    count: int,
    skeleton: SkeletonConfig,
) -> list:
    hook = getattr(platform, "surrogate_validation_irs", None)
    if hook is not None:
        return hook(rng, count)
    return [compile_cell_ops(spec, skeleton) for spec in _random_specs(rng, count)]


# ---------------------------------------------------------------------------
# Fitting + the artifact
# ---------------------------------------------------------------------------

def _sample_indices(
    size: int,
    n_samples: int,
    rng: np.random.Generator,
    platform: HardwarePlatform | None = None,
    space: AcceleratorSpace | None = None,
) -> tuple[np.ndarray, str]:
    """Seeded flat-index sample, rejection-topped-up to valid configs.

    Returns ``(indices, mode)`` where mode is ``"enumerated"`` (space
    small enough to take whole), ``"choice"`` (plain without-replacement
    sample — every drawn config valid), or ``"rejection"`` (invalid
    draws were replaced by fresh valid ones).  The first draw consumes
    the RNG stream exactly as the pre-sampling implementation did, so
    fits on all-valid platforms are bit-identical to their historical
    artifacts.
    """
    if size <= n_samples:
        return np.arange(size), "enumerated"
    draw = np.sort(rng.choice(size, size=n_samples, replace=False))
    if platform is None or space is None:
        return draw, "choice"
    valid = np.asarray(
        platform.batch_config_valid(space.columns_at(draw)), dtype=bool
    )
    if valid.all():
        return draw, "choice"
    kept = set(int(i) for i in draw[valid])
    needed = n_samples - len(kept)
    for _ in range(64):
        if needed <= 0:
            break
        chunk = rng.integers(0, size, size=max(4 * needed, 256))
        chunk_valid = np.asarray(
            platform.batch_config_valid(space.columns_at(chunk)), dtype=bool
        )
        for index in chunk[chunk_valid].tolist():
            if index not in kept:
                kept.add(int(index))
                needed -= 1
                if needed == 0:
                    break
    if needed > 0:
        raise HardwarePlatformError(
            f"platform {platform.name!r}: could not rejection-sample "
            f"{n_samples} valid configurations (space size {size}; the "
            "valid fraction appears to be vanishingly small)"
        )
    return np.sort(np.fromiter(kept, dtype=np.int64, count=len(kept))), "rejection"


def _columns_at(space: AcceleratorSpace, indices: np.ndarray) -> dict[str, np.ndarray]:
    return space.columns_at(indices)


def _error_report(exact: np.ndarray, predicted: np.ndarray) -> dict:
    rel = np.abs(predicted - exact) / exact
    return {
        "mae": float(np.mean(np.abs(predicted - exact))),
        "mean_rel_error": float(rel.mean()),
        "max_rel_error": float(rel.max()),
        "rank_corr": spearman_rank_correlation(exact, predicted),
        "n": int(len(exact)),
    }


def spearman_rank_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman's rho (Pearson correlation of the rank vectors)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) < 2:
        return 1.0

    def ranks(x: np.ndarray) -> np.ndarray:
        order = np.argsort(x, kind="stable")
        r = np.empty(len(x), dtype=np.float64)
        r[order] = np.arange(len(x), dtype=np.float64)
        return r

    ra, rb = ranks(a), ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra**2).sum() * (rb**2).sum())
    if denom == 0:
        return 1.0
    return float((ra * rb).sum() / denom)


@dataclass
class SurrogateModel:
    """A fitted per-platform cost model, JSON-round-trippable.

    ``digest`` hashes the full serialized artifact, so any change to
    the base platform identity, the featurization, the fit inputs, or a
    single learned weight yields a different digest — which is what the
    :class:`SurrogatePlatform` cache namespace pins.
    """

    base_name: str
    base_namespace: str
    params: dict
    skeleton_token: str
    n_samples: int
    seed: int
    feature_version: int
    area: RegressorStack
    latency: RegressorStack
    report: dict
    probes: dict
    #: Present only when the fit rejection-sampled around invalid
    #: configurations (``{"mode": "rejection", "n_drawn": ...}``);
    #: omitted from the serialized form otherwise so every historical
    #: all-valid fit keeps its digest byte for byte.
    sampling: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "format": 1,
            "base_name": self.base_name,
            "base_namespace": self.base_namespace,
            "params": dict(self.params),
            "skeleton_token": self.skeleton_token,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "feature_version": self.feature_version,
            "models": {
                "area": self.area.to_dict(),
                "latency": self.latency.to_dict(),
            },
            "report": self.report,
            "probes": self.probes,
        }
        if self.sampling:
            out["sampling"] = dict(self.sampling)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SurrogateModel":
        return cls(
            base_name=data["base_name"],
            base_namespace=data["base_namespace"],
            params=dict(data["params"]),
            skeleton_token=data["skeleton_token"],
            n_samples=int(data["n_samples"]),
            seed=int(data["seed"]),
            feature_version=int(data["feature_version"]),
            area=RegressorStack.from_dict(data["models"]["area"]),
            latency=RegressorStack.from_dict(data["models"]["latency"]),
            report=dict(data["report"]),
            probes=dict(data["probes"]),
            sampling=data.get("sampling"),
        )

    @property
    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.md5(blob.encode()).hexdigest()

    def save(self, path: Path) -> Path:
        """Atomic write: pid-suffixed tmp sibling + ``os.replace``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}.json")
        try:
            tmp.write_text(json.dumps(self.to_dict(), sort_keys=True))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    @classmethod
    def load(cls, path: Path) -> "SurrogateModel | None":
        """Read an artifact; ``None`` on a missing/corrupt/alien file."""
        try:
            data = json.loads(Path(path).read_text())
            if data.get("format") != 1:
                return None
            return cls.from_dict(data)
        except (OSError, ValueError, KeyError, TypeError):
            return None


#: Probe budget: this many exact (config, metric) anchor values are
#: stored in the artifact and re-verified against the live platform on
#: every warm load — a drifted model constant can never serve a stale
#: fit (the namespace digest should prevent it, but silently edited
#: calibration constants must not either).
_NUM_PROBES = 8


def _probe_values(
    platform: HardwarePlatform,
    space: AcceleratorSpace,
    skeleton: SkeletonConfig,
) -> dict:
    size = space.size
    step = max(1, size // _NUM_PROBES)
    indices = np.arange(0, size, step)[:_NUM_PROBES]
    cols = _columns_at(space, indices)
    probe_ir = _platform_probe_ir(platform, skeleton)
    return {
        "indices": [int(i) for i in indices],
        "area_mm2": np.asarray(
            platform.batch_area_mm2(cols), dtype=np.float64
        ).tolist(),
        "latency_s": np.asarray(
            platform.batch_network_latency_s(probe_ir, cols), dtype=np.float64
        ).tolist(),
    }


def _probes_match(model: "SurrogateModel", platform: HardwarePlatform,
                  skeleton: SkeletonConfig) -> bool:
    space = platform.config_space()
    fresh = _probe_values(platform, space, skeleton)
    return (
        fresh["indices"] == model.probes.get("indices")
        and fresh["area_mm2"] == model.probes.get("area_mm2")
        and fresh["latency_s"] == model.probes.get("latency_s")
    )


def fit_surrogate(
    platform: HardwarePlatform,
    n_samples: int = DEFAULT_FIT_SAMPLES,
    seed: int = DEFAULT_FIT_SEED,
    skeleton: SkeletonConfig = CIFAR10_SKELETON,
) -> SurrogateModel:
    """Fit area + latency surrogates against the exact platform paths.

    Deterministic in ``(platform identity, n_samples, seed,
    skeleton)``: configurations are a seeded sample of the platform's
    space (the whole space when it is small enough), latency targets
    come from the canonical + seeded training cells, and both regressor
    stacks break ties deterministically.  The returned artifact's
    ``report`` holds holdout errors measured at fit time — a fifth of
    the sampled configs and one entire held-out cell never seen by the
    latency fit.
    """
    if isinstance(platform, SurrogatePlatform):
        raise HardwarePlatformError(
            f"platform {platform.name!r} is already a surrogate — refusing "
            "to fit a surrogate of a surrogate"
        )
    if n_samples < 16:
        raise HardwarePlatformError(
            f"fit_surrogate needs at least 16 samples, got {n_samples}"
        )
    space = platform.config_space()
    rng = make_rng(hash_seed("hw-surrogate", platform.cache_namespace(), n_samples, seed))
    indices, mode = _sample_indices(
        space.size, n_samples, rng, platform=platform, space=space
    )
    cols = _columns_at(space, indices)
    n = len(indices)
    holdout = np.zeros(n, dtype=bool)
    holdout[rng.permutation(n)[: max(1, n // 5)]] = True

    # --- area: config-only -------------------------------------------------
    area_exact = np.asarray(platform.batch_area_mm2(cols), dtype=np.float64)
    X_area = _platform_config_features(platform, cols)
    area_stack = RegressorStack.fit(X_area[~holdout], area_exact[~holdout])
    area_report = _error_report(
        area_exact[holdout], area_stack.predict(X_area[holdout])
    )

    # --- latency: joint (workload, config) --------------------------------
    irs = _platform_training_irs(platform, skeleton, seed)
    holdout_ir = irs[-1]  # an entire workload the fit never sees
    train_irs = irs[:-1]
    X_parts, y_parts = [], []
    for ir in train_irs:
        X_parts.append(_platform_latency_features(platform, ir, cols)[~holdout])
        y_parts.append(
            np.asarray(
                platform.batch_network_latency_s(ir, cols), dtype=np.float64
            )[~holdout]
        )
    latency_stack = RegressorStack.fit(
        np.vstack(X_parts), np.concatenate(y_parts), rounds=400
    )
    X_hold = _platform_latency_features(platform, holdout_ir, cols)[holdout]
    y_hold = np.asarray(
        platform.batch_network_latency_s(holdout_ir, cols), dtype=np.float64
    )[holdout]
    latency_report = _error_report(y_hold, latency_stack.predict(X_hold))

    return SurrogateModel(
        base_name=platform.name,
        base_namespace=platform.cache_namespace(),
        params=dict(platform.params),
        skeleton_token=skeleton_token(skeleton),
        n_samples=int(n_samples),
        seed=int(seed),
        feature_version=FEATURE_VERSION,
        area=area_stack,
        latency=latency_stack,
        report={"area": area_report, "latency": latency_report},
        probes=_probe_values(platform, space, skeleton),
        sampling=(
            {"mode": mode, "n_drawn": int(n)} if mode == "rejection" else None
        ),
    )


def _default_cache_dir() -> Path:
    from repro.experiments.common import default_cache_dir

    return default_cache_dir() / "surrogate"


def _artifact_path(
    cache_dir: Path,
    base_namespace: str,
    skeleton: SkeletonConfig,
    n_samples: int,
    seed: int,
    space_size: int,
) -> Path:
    digest = hashlib.md5(base_namespace.encode()).hexdigest()[:10]
    # The sampling mode is part of the key: a fit sampled from a big
    # space must never warm-load as (or clobber) a full-space
    # enumeration fit, even if the platform's space later shrinks or
    # grows across the n_samples threshold.
    mode = "full" if space_size <= n_samples else "sampled"
    return Path(cache_dir) / (
        f"surrogate_{digest}_{skeleton_token(skeleton)}"
        f"_n{n_samples}_s{seed}_{mode}_v{FEATURE_VERSION}.json"
    )


#: (base namespace, skeleton token, n, seed, cache dir, disk flag) ->
#: SurrogateModel; one fit per process serves every evaluator/test.
_SURROGATE_MEMO: dict[tuple, SurrogateModel] = {}


def surrogate_model_for(
    platform: HardwarePlatform,
    n_samples: int = DEFAULT_FIT_SAMPLES,
    seed: int = DEFAULT_FIT_SEED,
    skeleton: SkeletonConfig = CIFAR10_SKELETON,
    cache_dir: Path | None = None,
    use_disk_cache: bool = True,
) -> SurrogateModel:
    """Load-or-fit the surrogate artifact for a platform.

    The artifact file is keyed by a digest of the base
    platform's ``cache_namespace()`` (plus skeleton and fit inputs), a
    warm load is discarded unless its pinned namespace, feature
    version, *and* stored exact probe values all match the live
    platform, and fitting writes the artifact back atomically.
    """
    resolved_dir = Path(cache_dir) if cache_dir else _default_cache_dir()
    key = (
        platform.cache_namespace(),
        skeleton_token(skeleton),
        int(n_samples),
        int(seed),
        str(resolved_dir),
        bool(use_disk_cache),
    )
    model = _SURROGATE_MEMO.get(key)
    if model is not None:
        return model
    path = _artifact_path(
        resolved_dir,
        platform.cache_namespace(),
        skeleton,
        n_samples,
        seed,
        platform.config_space().size,
    )
    if use_disk_cache:
        model = SurrogateModel.load(path)
        if model is not None and (
            model.base_namespace != platform.cache_namespace()
            or model.feature_version != FEATURE_VERSION
            or model.skeleton_token != skeleton_token(skeleton)
            or not _probes_match(model, platform, skeleton)
        ):
            model = None  # drifted artifact: refuse it, refit below
    if model is None:
        model = fit_surrogate(
            platform, n_samples=n_samples, seed=seed, skeleton=skeleton
        )
        if use_disk_cache:
            model.save(path)
    _SURROGATE_MEMO[key] = model
    return model


# ---------------------------------------------------------------------------
# The platform
# ---------------------------------------------------------------------------

def _as_columns(configs, space: AcceleratorSpace) -> dict[str, np.ndarray]:
    """Coerce the batch-call operand to a column dict (like the exact
    platforms' ``batch_schedule`` does)."""
    if configs is None:
        return space.columns()
    if hasattr(configs, "columns"):
        return configs.columns()
    if isinstance(configs, dict):
        return {name: np.asarray(values) for name, values in configs.items()}
    configs = list(configs) if not hasattr(configs, "to_dict") else [configs]
    return {
        name: np.asarray([getattr(config, name) for config in configs])
        for name in space.names
    }


class SurrogatePlatform(HardwarePlatform):
    """The learned cost models behind the full platform protocol.

    Wraps a base platform: same ``config_space()`` and validity, but
    area/latency answered by the fitted :class:`SurrogateModel` —
    vectorized over the whole space in microseconds per config, with
    the batch and scalar paths agreeing bit for bit (prediction is
    element-wise by construction).  The cache namespace pins the
    artifact digest, so surrogate rows can never be mistaken for exact
    rows nor for a differently fitted surrogate's.
    """

    def __init__(self, base: HardwarePlatform, model: SurrogateModel) -> None:
        if model.base_namespace != base.cache_namespace():
            raise HardwarePlatformError(
                f"surrogate model was fitted for platform namespace "
                f"{model.base_namespace!r} but wraps {base.cache_namespace()!r}"
            )
        self.base = base
        self.model = model
        self.name = f"{SURROGATE_PREFIX}{base.name}"
        self.params = dict(base.params)
        self._space = base.config_space()

    # --- metric queries ---------------------------------------------------
    # Feature extraction dispatches through the *base* platform, so a
    # platform with its own featurization (charm-u50) is predicted with
    # the same features it was fitted on.
    def area_mm2(self, config) -> float:
        cols = _as_columns([config], self._space)
        return float(
            self.model.area.predict(_platform_config_features(self.base, cols))[0]
        )

    def batch_area_mm2(self, cols) -> np.ndarray:
        return self.model.area.predict(_platform_config_features(self.base, cols))

    def network_latency_s(self, ir: NetworkIR, config) -> float:
        cols = _as_columns([config], self._space)
        return float(
            self.model.latency.predict(
                _platform_latency_features(self.base, ir, cols)
            )[0]
        )

    def batch_network_latency_s(self, ir: NetworkIR, configs=None) -> np.ndarray:
        cols = _as_columns(configs, self._space)
        return self.model.latency.predict(
            _platform_latency_features(self.base, ir, cols)
        )

    def config_valid(self, config) -> bool:
        return self.base.config_valid(config)

    def batch_config_valid(self, cols) -> np.ndarray:
        return self.base.batch_config_valid(cols)

    # --- identity ---------------------------------------------------------
    def config_space(self) -> AcceleratorSpace:
        return self._space

    def cache_namespace(self) -> str:
        return f"hw/{self.name}/m{self.model.digest[:10]}"

    def describe(self) -> dict:
        out = super().describe()
        out.update(
            base_namespace=self.model.base_namespace,
            fit={
                "n_samples": self.model.n_samples,
                "seed": self.model.seed,
                "feature_version": self.model.feature_version,
                "skeleton_token": self.model.skeleton_token,
            },
            error_report=self.model.report,
            error_budget=budget_verdict(self.model.report),
        )
        return out


def budget_verdict(report: dict, budget: dict | None = None) -> dict:
    """Evaluate an error report against the (default) budget."""
    budget = budget or DEFAULT_ERROR_BUDGET
    out: dict = {"passed": True, "metrics": {}}
    for metric, limits in budget.items():
        measured = report.get(metric)
        if measured is None:
            continue
        checks = {
            "mean_rel_error": measured["mean_rel_error"] <= limits["mean_rel_error"],
            "max_rel_error": measured["max_rel_error"] <= limits["max_rel_error"],
            "rank_corr": measured["rank_corr"] >= limits["min_rank_corr"],
        }
        out["metrics"][metric] = {
            "passed": all(checks.values()),
            "checks": checks,
            "measured": {
                "mean_rel_error": measured["mean_rel_error"],
                "max_rel_error": measured["max_rel_error"],
                "rank_corr": measured["rank_corr"],
            },
            "budget": dict(limits),
        }
        out["passed"] = out["passed"] and all(checks.values())
    return out


# ---------------------------------------------------------------------------
# Validation harness (``repro hw validate-surrogate``)
# ---------------------------------------------------------------------------

def validate_surrogate(
    platform: HardwarePlatform | str,
    n_samples: int = 256,
    seed: int = 1,
    skeleton: SkeletonConfig = CIFAR10_SKELETON,
    budget: dict | None = None,
    model: SurrogateModel | None = None,
) -> dict:
    """Score a fitted surrogate against the exact platform, freshly.

    Draws a *new* seeded sample of configurations and a new seeded set
    of cells (disjoint RNG stream from the fit), computes exact and
    predicted area/latency, and reports MAE / mean and max relative
    error / Spearman rank correlation per metric, with a pass/fail
    verdict against ``budget`` (default
    :data:`DEFAULT_ERROR_BUDGET`).  Returns the report dict; the CLI
    turns ``report["budget"]["passed"] == False`` into a non-zero exit.
    """
    if isinstance(platform, str):
        name = platform[len(SURROGATE_PREFIX):] if platform.startswith(
            SURROGATE_PREFIX
        ) else platform
        platform = build_platform(name)
    if isinstance(platform, SurrogatePlatform):
        platform = platform.base
    model = model or surrogate_model_for(platform)
    space = platform.config_space()
    rng = make_rng(
        hash_seed("hw-surrogate-validate", platform.cache_namespace(), n_samples, seed)
    )
    indices, _ = _sample_indices(
        space.size, n_samples, rng, platform=platform, space=space
    )
    cols = _columns_at(space, indices)

    area_exact = np.asarray(platform.batch_area_mm2(cols), dtype=np.float64)
    area_pred = model.area.predict(_platform_config_features(platform, cols))

    eval_irs = _platform_validation_irs(platform, rng, 3, skeleton)
    latency_exact_parts, latency_pred_parts = [], []
    for ir in eval_irs:
        latency_exact_parts.append(
            np.asarray(platform.batch_network_latency_s(ir, cols), dtype=np.float64)
        )
        latency_pred_parts.append(
            model.latency.predict(_platform_latency_features(platform, ir, cols))
        )
    latency_exact = np.concatenate(latency_exact_parts)
    latency_pred = np.concatenate(latency_pred_parts)

    report = {
        "platform": platform.name,
        "base_namespace": platform.cache_namespace(),
        "model_digest": model.digest,
        "n_configs": int(len(indices)),
        "n_cells": len(eval_irs),
        "area": _error_report(area_exact, area_pred),
        "latency": _error_report(latency_exact, latency_pred),
    }
    report["budget"] = budget_verdict(report, budget)
    return report


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _surrogate_builder(base_name: str):
    def build(params: dict) -> SurrogatePlatform:
        base = build_platform(base_name, params)
        model = surrogate_model_for(base)
        return SurrogatePlatform(base, model)

    return build


def register_surrogate_platforms(overwrite: bool = False) -> list[str]:
    """Register ``surrogate:<name>`` for every non-surrogate platform.

    Called at import for the shipped platforms; plugin platforms
    registered later can call it again (idempotent with
    ``overwrite=True``) to gain their surrogate twins.
    """
    registered = []
    for name in list_platforms():
        if name.startswith(SURROGATE_PREFIX):
            continue
        surrogate_name = f"{SURROGATE_PREFIX}{name}"
        if surrogate_name in list_platforms() and not overwrite:
            continue
        register_platform(
            surrogate_name,
            _surrogate_builder(name),
            description=(
                f"learned cost surrogate of {name!r}: ridge + boosted-stump "
                "area/latency models fitted on seeded samples of the exact "
                "paths (see repro.hw.surrogate; params are the base "
                "platform's)"
            ),
            overwrite=overwrite,
        )
        registered.append(surrogate_name)
    return registered


register_surrogate_platforms()
