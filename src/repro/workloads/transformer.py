"""The ``transformer`` workload: parametric encoder stacks as GEMM IRs.

The model half is a five-token parametric family (depth / heads /
hidden / FFN ratio / sequence length over
:data:`repro.hw.gemm.TRANSFORMER_PARAMETER_VALUES`), lowered by
:func:`repro.hw.gemm.transformer_gemm_ir` to the flat GEMM sequence
tiled-matmul platforms (``charm-u50``) schedule.  The spec and
encoding duck-type :class:`repro.nasbench.ModelSpec` and
:class:`repro.nasbench.CellEncoding`, so the whole search stack —
joint space, evaluator memos, searchers, archives — runs unchanged.

Accuracy comes from the ``transformer-analytic`` source: a
deterministic closed-form score with the qualitative shape of a GLUE
curve (saturating in parameter count, mildly rewarding context length,
penalising extreme head widths).  Like :class:`Cifar10Surrogate` for
open-space CNN runs, it is a stand-in for a trained predictor — the
point of this workload is exercising the *hardware* side past
enumerable spaces, not transformer accuracy modelling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Sequence

import numpy as np

from repro.core.evaluator import (
    AccuracySourceError,
    CodesignEvaluator,
    register_accuracy_source,
)
from repro.hw.gemm import (
    TRANSFORMER_PARAMETER_VALUES,
    GemmIR,
    transformer_gemm_ir,
)
from repro.nasbench.model_spec import InvalidSpecError
from repro.workloads.registry import register_workload

__all__ = [
    "TransformerSpec",
    "TransformerEncoding",
    "compile_transformer_ops",
    "analytic_accuracy",
    "TRANSFORMER",
]

#: Token order — one controller token per entry.
PARAMETER_NAMES: tuple[str, ...] = tuple(TRANSFORMER_PARAMETER_VALUES)


@dataclass(frozen=True)
class TransformerSpec:
    """An immutable transformer configuration (duck-typed ModelSpec).

    ``matrix``/``ops``/``valid``/``spec_hash`` mirror the surface the
    evaluator and search loop consume: ``matrix`` is a 1x5 int64 array
    of the raw parameters (its ``tobytes()`` keys the batch-path
    content memo), ``ops`` a constant kind tag, and the hash a
    readable token — transformer configs have no isomorphism to
    canonicalize away.
    """

    depth: int
    heads: int
    hidden: int
    ffn_ratio: int
    seq_len: int
    matrix: np.ndarray = field(init=False, repr=False, compare=False)
    ops: tuple[str, ...] = field(init=False, repr=False, compare=False)
    valid: bool = field(init=False)
    invalid_reason: str = field(init=False, default="")

    def __post_init__(self) -> None:
        reason = ""
        for name in PARAMETER_NAMES:
            value = getattr(self, name)
            if value not in TRANSFORMER_PARAMETER_VALUES[name]:
                reason = (
                    f"{name}={value} not in domain "
                    f"{TRANSFORMER_PARAMETER_VALUES[name]}"
                )
                break
        if not reason and self.hidden % self.heads != 0:
            reason = (
                f"hidden ({self.hidden}) not divisible by heads ({self.heads})"
            )
        object.__setattr__(self, "valid", not reason)
        object.__setattr__(self, "invalid_reason", reason)
        object.__setattr__(
            self,
            "matrix",
            np.asarray(
                [[getattr(self, name) for name in PARAMETER_NAMES]],
                dtype=np.int64,
            ),
        )
        object.__setattr__(self, "ops", ("transformer",))

    # ------------------------------------------------------------------
    @property
    def params(self) -> dict[str, int]:
        """The raw parameters, keyword-ready for the IR factory."""
        return {name: getattr(self, name) for name in PARAMETER_NAMES}

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    def spec_hash(self) -> str:
        if not self.valid:
            raise InvalidSpecError(
                f"invalid spec has no hash: {self.invalid_reason}"
            )
        return (
            f"tfm-d{self.depth}-h{self.heads}-w{self.hidden}"
            f"-f{self.ffn_ratio}-s{self.seq_len}"
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {"workload": "transformer", **self.params}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TransformerSpec":
        return cls(**{name: int(data[name]) for name in PARAMETER_NAMES})

    def __str__(self) -> str:
        if not self.valid:
            return f"TransformerSpec(invalid: {self.invalid_reason})"
        return f"TransformerSpec({self.spec_hash()})"


@dataclass(frozen=True)
class TransformerEncoding:
    """Bijection between controller actions and transformer specs.

    Five categorical tokens, one per parameter in declaration order.
    Like :class:`repro.nasbench.CellEncoding`, decoding never fails on
    in-range actions: combinations violating ``hidden % heads == 0``
    come back with ``valid == False`` and earn the punishment reward.
    """

    # ------------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        return PARAMETER_NAMES

    @property
    def num_tokens(self) -> int:
        return len(PARAMETER_NAMES)

    @property
    def vocab_sizes(self) -> list[int]:
        return [len(TRANSFORMER_PARAMETER_VALUES[n]) for n in PARAMETER_NAMES]

    @property
    def space_size(self) -> int:
        """Raw (pre-validity) size of the action space."""
        size = 1
        for v in self.vocab_sizes:
            size *= v
        return size

    # ------------------------------------------------------------------
    def decode(self, actions: Sequence[int]) -> TransformerSpec:
        actions = list(actions)
        if len(actions) != self.num_tokens:
            raise ValueError(
                f"expected {self.num_tokens} actions, got {len(actions)}"
            )
        for a, vocab in zip(actions, self.vocab_sizes):
            if not 0 <= a < vocab:
                raise ValueError(f"action {a} out of range for vocab {vocab}")
        return TransformerSpec(
            **{
                name: TRANSFORMER_PARAMETER_VALUES[name][a]
                for name, a in zip(PARAMETER_NAMES, actions)
            }
        )

    def encode(self, spec: TransformerSpec) -> list[int]:
        if not spec.valid:
            raise ValueError("cannot encode an invalid spec")
        return [
            TRANSFORMER_PARAMETER_VALUES[name].index(getattr(spec, name))
            for name in PARAMETER_NAMES
        ]

    def random_actions(self, rng: np.random.Generator) -> list[int]:
        return [int(rng.integers(0, v)) for v in self.vocab_sizes]


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _compiled_ir(depth: int, heads: int, hidden: int,
                 ffn_ratio: int, seq_len: int) -> GemmIR:
    return transformer_gemm_ir(depth, heads, hidden, ffn_ratio, seq_len)


def compile_transformer_ops(spec: TransformerSpec, skeleton=None) -> GemmIR:
    """Lower a spec to its GEMM IR (memoized on the raw parameters).

    Signature-compatible with
    :func:`repro.nasbench.compile.compile_cell_ops` so the evaluator
    can hold either behind one ``compile_fn`` slot; ``skeleton`` is a
    CNN-macro concept and is ignored here.
    """
    if not spec.valid:
        raise InvalidSpecError(
            f"cannot compile invalid spec: {spec.invalid_reason}"
        )
    return _compiled_ir(
        spec.depth, spec.heads, spec.hidden, spec.ffn_ratio, spec.seq_len
    )


# ---------------------------------------------------------------------------
# The transformer-analytic accuracy source
# ---------------------------------------------------------------------------

#: Saturation anchors of the analytic score (percent accuracy).
_FLOOR = 62.0
_CEILING = 91.0
#: Weight count (millions) of the largest canonical point (bert-base);
#: normalizes the capacity term to ~1.0 there.
_CAPACITY_NORM_M = 12 * 768 * 768 * 12 / 1e6


def analytic_accuracy(spec: TransformerSpec) -> float | None:
    """Deterministic GLUE-shaped score of a transformer spec.

    Saturating in parameter count, log-linear in context length up to
    512 tokens, and penalized quadratically (in log space) for head
    widths far from 64 — enough structure that accuracy genuinely
    trades against hardware cost during search.
    """
    if not spec.valid:
        return None
    weights_m = (
        spec.depth * spec.hidden * spec.hidden * (4 + 2 * spec.ffn_ratio)
    ) / 1e6
    capacity = math.log1p(weights_m) / math.log1p(_CAPACITY_NORM_M)
    context = math.log2(spec.seq_len / 64.0) / 3.0
    balance = 1.0 / (1.0 + 0.08 * math.log2(spec.head_dim / 64.0) ** 2)
    quality = (0.8 * capacity + 0.2 * context) * balance
    return _FLOOR + (_CEILING - _FLOOR) * (1.0 - math.exp(-2.5 * quality))


def _refuse_params(params) -> None:
    if params:
        raise AccuracySourceError(
            "accuracy source 'transformer-analytic' takes no parameters; "
            f"got {sorted(params)}"
        )


def _build_transformer_analytic(
    reward_config, params, bundle=None, store=None, platform=None
):
    _refuse_params(params)
    evaluator = CodesignEvaluator(
        analytic_accuracy, reward_config, platform=platform
    )
    evaluator.compile_fn = compile_transformer_ops
    evaluator.source_info = {"source": "transformer-analytic"}
    return evaluator


def _transformer_analytic_namespace(params, bundle=None):
    _refuse_params(params)
    return "study/transformer-analytic"


register_accuracy_source(
    "transformer-analytic",
    _build_transformer_analytic,
    _transformer_analytic_namespace,
)


TRANSFORMER = register_workload(
    "transformer",
    description=(
        "parametric BERT-style encoder stacks lowered to GEMM sequences "
        "for tiled-matmul platforms (pairs with charm-u50; analytic "
        "accuracy)"
    ),
    encoding_factory=lambda bundle=None: TransformerEncoding(),
    compile=compile_transformer_ops,
    default_accuracy_source="transformer-analytic",
    accuracy_sources=("transformer-analytic",),
    platforms=("charm-u50",),
)
