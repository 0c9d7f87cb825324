"""The evaluation function ``E(s)`` (paper Fig. 1's Evaluator).

Given a proposed (cell, accelerator) pair the evaluator:

1. rejects invalid cells (the controller's raw tokens may decode to a
   disconnected or over-budget graph) — these earn the punishment;
2. reads the cell's accuracy from its accuracy source — a
   :class:`repro.nasbench.CellDatabase` (the NASBench-style flow of
   Section III) or any callable, such as the CIFAR-10 surrogate or
   the cached CIFAR-100 trainer (the flow of Section IV);
3. compiles the cell and asks its :class:`repro.hw.HardwarePlatform`
   for latency and area;
4. maps the metric vector through the scenario's reward function.

The hardware side is a swappable backend: the evaluator never
constructs area/latency models itself, it queries whatever platform it
was given (default: the registered ``dac2020`` reference platform,
bit-identical to the historical hardwired models — see
:mod:`repro.hw`).

There is one evaluation path, :meth:`CodesignEvaluator.evaluate_batch`
(``evaluate`` is a batch of one), and every layer of it stores a pure
function of its key, so caching never changes results — only
evaluation cost.  Cells are keyed by ``spec_hash``, which each spec
computes once and remembers (see :meth:`repro.nasbench.ModelSpec.spec_hash`).
The per-cell accuracy memo and the config -> latency-table column memo
are unbounded: they grow with the distinct cells and configurations a
run visits.  The per-(cell, config) latency memo and the per-config
area memo are LRU maps bounded by ``cache_capacity``, so
multi-million-point sweeps run in constant memory.  An optional shared
persistent :class:`repro.parallel.EvalCache` sits in front of them so
repeats, worker processes, and re-runs warm-start each other.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.lut import config_key
from repro.core.metrics import Metrics
from repro.hw import Dac2020Platform, HardwarePlatform
from repro.core.reward import RewardConfig, RewardFunction, RewardResult
from repro.nasbench.compile import compile_cell_ops
from repro.nasbench.database import CellDatabase
from repro.nasbench.model_spec import ModelSpec
from repro.nasbench.skeleton import CIFAR10_SKELETON, SkeletonConfig
from repro.nasbench.surrogate import Cifar10Surrogate
from repro.parallel.cache import CacheEntry, EvalCache
from repro.utils.lru import LRUCache
from repro.utils.registry import Registry, check_params, params_token

__all__ = [
    "EvaluationResult",
    "CodesignEvaluator",
    "AccuracySourceError",
    "register_accuracy_source",
    "get_accuracy_source",
    "list_accuracy_sources",
    "build_evaluator",
    "accuracy_source_namespace",
    "hardware_namespace",
    "bundle_matches",
    "DEFAULT_CACHE_CAPACITY",
]

#: Default bound on the evaluator's in-memory latency/area memos.
DEFAULT_CACHE_CAPACITY = 100_000

#: Accuracy source signature: percent accuracy, or ``None`` for
#: "this cell is outside the evaluable space" (punished like invalid).
AccuracyFn = Callable[[ModelSpec], "float | None"]


@dataclass(frozen=True)
class EvaluationResult:
    """Everything the search loop needs about one evaluated point."""

    spec: ModelSpec
    config: AcceleratorConfig
    metrics: Metrics | None
    reward: RewardResult

    @property
    def feasible(self) -> bool:
        return self.reward.feasible

    @property
    def valid(self) -> bool:
        return self.reward.valid


class CodesignEvaluator:
    """Memoized ``E(s)`` over a fixed accuracy source and HW platform."""

    def __init__(
        self,
        accuracy_fn: AccuracyFn,
        reward_config: RewardConfig,
        skeleton: SkeletonConfig = CIFAR10_SKELETON,
        platform: HardwarePlatform | None = None,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
    ) -> None:
        self.platform = Dac2020Platform() if platform is None else platform
        self.accuracy_fn = accuracy_fn
        self.reward_fn = RewardFunction(reward_config)
        self.skeleton = skeleton
        # Spec -> IR lowering.  The default compiles NASBench cells
        # onto the CNN skeleton; workload recipes (repro.workloads)
        # install their own — e.g. the transformer workload's GEMM
        # lowering.  Same (spec, skeleton) signature either way.
        self.compile_fn = compile_cell_ops
        self._area_cache: LRUCache = LRUCache(cache_capacity)
        self._latency_cache: LRUCache = LRUCache(cache_capacity)
        self._accuracy_cache: dict[str, float | None] = {}
        # config_key -> latency-table column: a pure key derivation.
        self._config_index_memo: dict[tuple, int] = {}
        self._latency_table = None
        self.eval_cache: EvalCache | None = None
        self.cache_scenario = reward_config.name
        self.num_evaluations = 0
        # Registered accuracy-source builders stash their side objects
        # here (e.g. the CIFAR-100 trainer behind ``accuracy_fn``), so
        # callers can reach cost ledgers without private plumbing.
        self.source_info: dict = {}

    def attach_eval_cache(
        self, cache: EvalCache | None, scenario: str | None = None
    ) -> "CodesignEvaluator":
        """Consult (and fill) a shared persistent cache during evaluation.

        ``scenario`` namespaces the cache rows; it defaults to the
        reward config's name.  Callers whose accuracy source is not
        fully determined by the scenario (e.g. a surrogate with a
        custom seed) should pass a namespace that includes it.
        """
        self.eval_cache = cache
        if scenario is not None:
            self.cache_scenario = scenario
        return self

    def attach_latency_table(self, latency_ms, row_of_hash, space) -> None:
        """Serve latencies from a precomputed (cell x config) matrix.

        ``latency_ms`` is (num_cells, space.size); ``row_of_hash`` maps
        spec hashes to rows.  Pairs outside the table fall back to the
        on-the-fly platform query, so attaching a table never changes
        results — only speed (the table's entries equal the platform's
        batch latencies, which equal its scalar calls; see
        ``tests/accelerator/test_scheduler.py``).

        The table's configuration space must match the active
        platform's ``config_space()`` exactly: a table enumerated over
        a different space would silently serve wrong latencies (the
        column lookup is positional), so a mismatch refuses loudly.
        """
        table_params = {k: tuple(v) for k, v in space.parameters.items()}
        platform_params = {
            k: tuple(v)
            for k, v in self.platform.config_space().parameters.items()
        }
        if table_params != platform_params:
            differing = sorted(
                name
                for name in set(table_params) | set(platform_params)
                if table_params.get(name) != platform_params.get(name)
            )
            raise ValueError(
                f"latency table's config space does not match platform "
                f"{self.platform.name!r}: parameter(s) {differing} differ "
                "— build the table against this platform's config_space()"
            )
        if latency_ms.shape[1] != space.size:
            raise ValueError(
                f"latency table has {latency_ms.shape[1]} columns but the "
                f"config space enumerates {space.size} configurations"
            )
        self._latency_table = (latency_ms, dict(row_of_hash), space)

    # --- constructors -----------------------------------------------------
    @classmethod
    def from_database(
        cls, database: CellDatabase, reward_config: RewardConfig, **kwargs
    ) -> "CodesignEvaluator":
        """NASBench-style evaluator: only database cells are evaluable.

        Cells outside the database receive ``None`` accuracy and are
        punished — this keeps search and Pareto enumeration over
        exactly the same space (the database is exhaustive for the
        micro space, so in that configuration nothing is ever missed).
        """

        def accuracy_fn(spec: ModelSpec) -> float | None:
            record = database.get(spec)
            return None if record is None else record.validation_accuracy

        return cls(accuracy_fn, reward_config, **kwargs)

    @classmethod
    def from_surrogate(
        cls,
        reward_config: RewardConfig,
        surrogate: Cifar10Surrogate | None = None,
        **kwargs,
    ) -> "CodesignEvaluator":
        """Open-space evaluator: any valid cell is evaluable."""
        surrogate = surrogate or Cifar10Surrogate()
        return cls(surrogate.validation_accuracy, reward_config, **kwargs)

    # --- E(s) ---------------------------------------------------------------
    def evaluate(self, spec: ModelSpec, config: AcceleratorConfig) -> EvaluationResult:
        """Full evaluation of one pair: metrics + scenario reward."""
        return self.evaluate_batch([(spec, config)])[0]

    def evaluate_batch(
        self, pairs: Sequence[tuple[ModelSpec, AcceleratorConfig]]
    ) -> list[EvaluationResult]:
        """Evaluate many pairs, computing each distinct pair once.

        Returns one result per input pair, in order; duplicate pairs
        share one computation (and one result object) but still count
        as evaluations.  A pair resolves through, in order: the
        in-batch ``(spec_hash, config_key)`` dedupe (the spec remembers
        its isomorphism-invariant hash), then :meth:`_metrics`'s cache
        layers, and finally the scenario reward.
        """
        memo: dict[tuple, EvaluationResult] = {}
        out: list[EvaluationResult] = []
        for spec, config in pairs:
            self.num_evaluations += 1
            if not spec.valid:
                out.append(
                    EvaluationResult(
                        spec=spec, config=config, metrics=None,
                        reward=self.reward_fn(None),
                    )
                )
                continue
            spec_hash = spec.spec_hash()
            ckey = config_key(config)
            key = (spec_hash, ckey)
            result = memo.get(key)
            if result is None:
                metrics = self._metrics(spec, config, spec_hash, ckey)
                result = EvaluationResult(
                    spec=spec, config=config, metrics=metrics,
                    reward=self.reward_fn(metrics),
                )
                memo[key] = result
            out.append(result)
        return out

    def _metrics(
        self,
        spec: ModelSpec,
        config: AcceleratorConfig,
        spec_hash: str,
        ckey: tuple,
    ) -> Metrics | None:
        """Metric vector of a valid pair, or ``None`` if not evaluable.

        Layers, in order: the persistent eval cache, the accuracy memo,
        platform validity, latency (:meth:`_latency`), the area LRU.
        """
        cache = self.eval_cache
        cache_key = None
        if cache is not None:
            cache_key = (self.cache_scenario, spec_hash, str(ckey))
            hit = cache.get(*cache_key)
            if hit is not None:
                if hit.accuracy is None:
                    return None
                return Metrics(
                    accuracy=hit.accuracy,
                    latency_s=hit.latency_s,
                    area_mm2=hit.area_mm2,
                )
        if spec_hash in self._accuracy_cache:
            accuracy = self._accuracy_cache[spec_hash]
        else:
            accuracy = self.accuracy_fn(spec)
            self._accuracy_cache[spec_hash] = accuracy
        if accuracy is None or not self.platform.config_valid(config):
            if cache is not None:
                cache.put(CacheEntry(*cache_key, None, None, None))
            return None
        latency = self._latency(spec, config, spec_hash, ckey)
        area = self._area_cache.get(ckey)
        if area is None:
            area = self.platform.area_mm2(config)
            self._area_cache[ckey] = area
        metrics = Metrics(accuracy=accuracy, latency_s=latency, area_mm2=area)
        if cache is not None:
            cache.put(CacheEntry(*cache_key, accuracy, latency, area))
        return metrics

    def _latency(
        self,
        spec: ModelSpec,
        config: AcceleratorConfig,
        spec_hash: str,
        ckey: tuple,
    ) -> float:
        """Latency from the bundle table's row, else LRU + platform."""
        if self._latency_table is not None:
            latency_ms, row_of_hash, space = self._latency_table
            row = row_of_hash.get(spec_hash)
            if row is not None:
                col = self._config_index_memo.get(ckey)
                if col is None:
                    col = space.index_of(config)
                    self._config_index_memo[ckey] = col
                return float(latency_ms[row, col]) / 1e3
        key = (spec_hash, ckey)
        if key not in self._latency_cache:
            ir = self.compile_fn(spec, self.skeleton)
            self._latency_cache[key] = self.platform.network_latency_s(ir, config)
        return self._latency_cache[key]

    # --- clones -------------------------------------------------------------
    def _derive(self, **overrides) -> "CodesignEvaluator":
        """A shallow copy sharing every memo except those overridden.

        Sharing is the default: every field, memos included, is shared
        with the clone unless the deriving method overrides it.
        """
        clone = copy.copy(self)
        clone.num_evaluations = 0
        vars(clone).update(overrides)
        return clone

    def with_reward(self, reward_config: RewardConfig) -> "CodesignEvaluator":
        """Same caches and platform under a different scenario.

        Used by the threshold-schedule search (Section IV), which
        raises the perf/area constraint mid-run without discarding the
        latency/area memoization.  The clone keeps the parent's eval
        cache and its namespace, so rung changes reuse warm rows.
        """
        return self._derive(reward_fn=RewardFunction(reward_config))

    def with_platform(self, platform: HardwarePlatform) -> "CodesignEvaluator":
        """Same accuracy source and scenario on a different platform.

        Used by the two-tier search mode, which scores proposals on the
        exact platform's :class:`repro.hw.SurrogatePlatform` twin (built
        by ``build_study``):
        the accuracy memo is shared (cell accuracy is
        platform-independent — re-deriving it would re-train
        trainer-backed sources), but every hardware-derived memo starts
        empty, the precomputed latency table is dropped, and no
        persistent eval cache is attached — approximate metrics must
        never reach (or be served from) the exact platform's cached
        rows.
        """
        return self._derive(
            platform=platform,
            _area_cache=LRUCache(self._area_cache.capacity),
            _latency_cache=LRUCache(self._latency_cache.capacity),
            _config_index_memo={},
            _latency_table=None,
            eval_cache=None,
        )


# ---------------------------------------------------------------------------
# Accuracy-source registry
# ---------------------------------------------------------------------------
#
# A *source* is a named recipe for the evaluator's accuracy function
# (and skeleton): the piece of ``E(s)`` that is not determined by the
# reward scenario.  Registering sources by name makes evaluators
# constructible from plain JSON — the declarative
# :class:`repro.core.study.StudySpec` path names one (``"database"`` /
# ``"surrogate"`` / ``"cifar100-trainer"``) plus a flat params mapping
# and gets back a fully armed :class:`CodesignEvaluator`.
#
# Builder signature::
#
#     build(reward_config, params, *, bundle=None, store=None,
#           platform=None) -> CodesignEvaluator
#
# ``bundle`` is the enumerated-space bundle for table-backed sources
# (duck-typed; see ``repro.experiments.common.SpaceBundle``);
# ``store`` is an optional :class:`repro.parallel.EvalCache` a training
# source may persist per-cell outcomes into; ``platform`` is the
# :class:`repro.hw.HardwarePlatform` the evaluator should query
# (default: the reference ``dac2020``).  ``namespace`` maps the
# same params to the shared-eval-cache namespace, pinning every
# outcome-affecting parameter so differently configured sources never
# share cached rows; compose it with :func:`hardware_namespace` to pin
# the platform as well.

class AccuracySourceError(ValueError):
    """An accuracy-source name or its params could not be resolved."""


@dataclass(frozen=True)
class AccuracySource:
    """One registered accuracy-source recipe."""

    name: str
    build: Callable[..., "CodesignEvaluator"]
    namespace: Callable[..., str]
    requires_bundle: bool = False


#: ``repro.workloads`` registers the workload-specific sources (e.g.
#: ``transformer-analytic``); it imports this module, so it is loaded on
#: the first lookup instead of here.
_ACCURACY_SOURCES: Registry[AccuracySource] = Registry(
    "accuracy source", AccuracySourceError, builtins=("repro.workloads",)
)


def _skeleton_token(params: dict | None) -> str:
    """Namespace suffix pinning the 'skeleton' param (latency-affecting)."""
    return params_token(
        {"skeleton": params["skeleton"]} if params and params.get("skeleton") else None
    )


def register_accuracy_source(
    name: str,
    build: Callable[..., "CodesignEvaluator"],
    namespace: Callable[..., str] | None = None,
    requires_bundle: bool = False,
    overwrite: bool = False,
) -> AccuracySource:
    """Register an accuracy source under ``name``.

    Without an explicit ``namespace`` function the source's cache
    namespace is ``study/<name>`` plus a digest of the full params
    mapping, so differently parameterized instances never share rows.
    """
    source = AccuracySource(
        name=name,
        build=build,
        namespace=namespace
        or (lambda params, bundle=None: f"study/{name}{params_token(params)}"),
        requires_bundle=requires_bundle,
    )
    return _ACCURACY_SOURCES.register(name, source, overwrite)


def list_accuracy_sources() -> list[str]:
    """Registered accuracy-source names, sorted."""
    return _ACCURACY_SOURCES.names()


def get_accuracy_source(name: str) -> AccuracySource:
    return _ACCURACY_SOURCES.get(name)


def _check_params(source: str, params: dict | None, allowed: tuple[str, ...]) -> dict:
    return check_params(
        f"accuracy source {source!r}", params, allowed, AccuracySourceError
    )


def _skeleton_from(params: dict, default: SkeletonConfig) -> SkeletonConfig:
    skeleton = params.pop("skeleton", None)
    if skeleton is None:
        return default
    if isinstance(skeleton, SkeletonConfig):
        return skeleton
    if not isinstance(skeleton, dict):
        raise AccuracySourceError(
            f"'skeleton' must be a mapping of SkeletonConfig fields, "
            f"got {type(skeleton).__name__}"
        )
    try:
        return SkeletonConfig(**skeleton)
    except (TypeError, ValueError) as err:
        raise AccuracySourceError(f"bad 'skeleton' params: {err}") from err


def build_evaluator(
    source: str,
    reward_config: RewardConfig,
    params: dict | None = None,
    bundle=None,
    store: EvalCache | None = None,
    platform: HardwarePlatform | None = None,
) -> "CodesignEvaluator":
    """Construct an evaluator from a registered accuracy source.

    ``platform`` selects the hardware backend (see :mod:`repro.hw`);
    ``None`` keeps the reference ``dac2020`` behaviour.
    """
    entry = get_accuracy_source(source)
    if entry.requires_bundle and bundle is None:
        raise AccuracySourceError(
            f"accuracy source {source!r} needs an enumerated-space bundle "
            "(pass bundle=..., e.g. repro.experiments.common.load_bundle())"
        )
    return entry.build(
        reward_config, params, bundle=bundle, store=store, platform=platform
    )


def accuracy_source_namespace(
    source: str, params: dict | None = None, bundle=None
) -> str:
    """Shared-eval-cache namespace pinning the source's parameters."""
    return get_accuracy_source(source).namespace(params or {}, bundle=bundle)


def bundle_matches(
    bundle, platform: HardwarePlatform, skeleton: SkeletonConfig
) -> bool:
    """Whether a bundle's precomputed arrays hold for (platform, skeleton).

    :func:`repro.experiments.common.load_bundle` compiles every cell on
    ``CIFAR10_SKELETON``, so the bundle's latencies are wrong for any
    other skeleton.  Bundles predating the platform API carry no
    platform and were enumerated by the reference models; newer
    bundles pin the platform that built them.  Platforms match by
    ``cache_namespace()`` — the identity that pins every
    result-affecting parameter — so two equivalent instances (e.g. both
    built from the same registry params) match without having to be
    the same object.
    """
    if skeleton != CIFAR10_SKELETON:
        return False
    bundle_platform = getattr(bundle, "platform", None)
    if bundle_platform is None:
        return platform.is_reference
    return platform.cache_namespace() == bundle_platform.cache_namespace()


def hardware_namespace(namespace: str, platform: HardwarePlatform | None) -> str:
    """``namespace`` with the platform identity pinned.

    The reference ``dac2020`` platform adds nothing, so every cache and
    ledger row written before the platform API existed stays valid; any
    other platform appends its ``cache_namespace()`` so differently
    modelled hardware never shares rows.
    """
    if platform is None or platform.is_reference:
        return namespace
    return f"{namespace}@{platform.cache_namespace()}"


def _database_skeleton(params) -> SkeletonConfig:
    params = _check_params("database", params, ("skeleton",))
    return _skeleton_from(params, CIFAR10_SKELETON)


def _build_database(reward_config, params, bundle=None, store=None, platform=None):
    evaluator = CodesignEvaluator.from_database(
        bundle.database, reward_config, skeleton=_database_skeleton(params),
        platform=platform,
    )
    # The bundle's precomputed latency matrix is only valid for the
    # platform and skeleton that enumerated it; anything else schedules
    # on the fly through the platform's own models instead.
    if bundle_matches(bundle, evaluator.platform, evaluator.skeleton):
        evaluator.attach_latency_table(
            bundle.latency_ms, bundle.row_of_hash(), bundle.space
        )
    evaluator.source_info = {"source": "database"}
    return evaluator


def _database_namespace(params, bundle=None):
    _database_skeleton(params)  # refuses what the builder refuses, bundle or not
    base = (
        "study/database"
        if bundle is None
        else f"study/micro{bundle.cell_encoding.max_vertices}"
    )
    return base + _skeleton_token(params)


_SURROGATE_FIELDS = ("seed", "noise_std", "ceiling", "floor")


def _surrogate_from(params) -> tuple[Cifar10Surrogate, SkeletonConfig]:
    params = _check_params("surrogate", params, _SURROGATE_FIELDS + ("skeleton",))
    skeleton = _skeleton_from(params, CIFAR10_SKELETON)
    try:
        return Cifar10Surrogate(**params), skeleton
    except (TypeError, ValueError) as err:
        raise AccuracySourceError(
            f"accuracy source 'surrogate': bad params {params!r}: {err}"
        ) from err


def _build_surrogate(reward_config, params, bundle=None, store=None, platform=None):
    surrogate, skeleton = _surrogate_from(params)
    evaluator = CodesignEvaluator.from_surrogate(
        reward_config, surrogate=surrogate, skeleton=skeleton, platform=platform
    )
    evaluator.source_info = {"source": "surrogate", "surrogate": surrogate}
    return evaluator


def _surrogate_namespace(params, bundle=None):
    surrogate, _ = _surrogate_from(params)
    return (
        f"study/surrogate/seed{surrogate.seed}/noise{surrogate.noise_std:g}"
        f"/clip{surrogate.floor:g}-{surrogate.ceiling:g}"
        f"{_skeleton_token(params)}"
    )


_TRAINER_FIELDS = (
    "seed",
    "noise_std",
    "gpu_hours_per_gmac",
    "gpu_hours_base",
    "floor",
    "ceiling",
)


def _trainer_from(params):
    # Training-stack imports stay function-local: the training layer
    # sits above core in the dependency graph.
    from repro.nasbench.skeleton import CIFAR100_SKELETON
    from repro.training.surrogate_trainer import SurrogateCifar100Trainer

    params = _check_params("cifar100-trainer", params, _TRAINER_FIELDS + ("skeleton",))
    skeleton = _skeleton_from(params, CIFAR100_SKELETON)
    try:
        return SurrogateCifar100Trainer(**params), skeleton
    except (TypeError, ValueError) as err:
        raise AccuracySourceError(
            f"accuracy source 'cifar100-trainer': bad params {params!r}: {err}"
        ) from err


def _build_cifar100_trainer(
    reward_config, params, bundle=None, store=None, platform=None
):
    from repro.training.cache import CachedTrainer

    trainer, skeleton = _trainer_from(params)
    cached = CachedTrainer(trainer, store=store, namespace=trainer.cache_namespace())
    evaluator = CodesignEvaluator(
        accuracy_fn=cached.accuracy_fn, reward_config=reward_config,
        skeleton=skeleton, platform=platform,
    )
    evaluator.source_info = {
        "source": "cifar100-trainer",
        "trainer": trainer,
        "cached": cached,
    }
    return evaluator


def _cifar100_trainer_namespace(params, bundle=None):
    trainer, _ = _trainer_from(params)
    return trainer.cache_namespace() + _skeleton_token(params)


register_accuracy_source(
    "database", _build_database, _database_namespace, requires_bundle=True
)
register_accuracy_source("surrogate", _build_surrogate, _surrogate_namespace)
register_accuracy_source(
    "cifar100-trainer", _build_cifar100_trainer, _cifar100_trainer_namespace
)
