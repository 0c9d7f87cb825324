"""Search-strategy interface: the batched ask/tell protocol.

Every strategy is a proposal engine over the joint CNN x accelerator
space.  Instead of owning its own evaluate loop, a strategy implements
three hooks —

* :meth:`SearchStrategy.setup` — reset per-run state (archive, stage
  machinery) for a fresh search against one evaluator;
* :meth:`SearchStrategy.ask` — propose up to ``n`` points as
  :class:`Proposal` objects (a strategy may return fewer, e.g. at a
  phase or stage boundary, and returns ``[]`` to finish early);
* :meth:`SearchStrategy.tell` — learn from the evaluation results for
  the proposals of the last ask, updating controllers / populations;

— and the shared :meth:`SearchStrategy.run` driver turns them into a
search: each iteration asks for a batch, evaluates it in **one**
:meth:`repro.core.CodesignEvaluator.evaluate_batch` call on the
evaluator :meth:`SearchStrategy.setup` armed (a strategy may re-arm it
between batches, as the threshold schedule does at each rung), records
every result in the archive, and tells the results back.  It is the
only search loop and the only place a result is archived.

Every strategy is additionally **checkpointable**: :meth:`state_dict`
snapshots everything future proposals depend on (RNG stream, archive,
populations, stage machinery, policy weights and optimizer moments)
and :meth:`load_state_dict` restores it.  The driver checkpoints at
batch boundaries through a pluggable :class:`Checkpoint` callback —
with the sqlite-backed :class:`repro.parallel.RunLedger` behind it, a
killed search resumes from its last checkpoint and, because replayed
batches are pure re-evaluations, finishes bit-identical to an
uninterrupted run at the same batch size (see
``tests/search/test_checkpoint_resume.py``).

Batch semantics are per-strategy (generation-sized batches for
evolution, rollout batches for the REINFORCE strategies), chosen so a
``batch_size=1`` run consumes the RNG stream exactly like the historic
per-point loop — serial results are bit-identical to the pre-ask/tell
implementation (see ``tests/search/test_ask_tell_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.search.two_tier import TwoTierFilter

import numpy as np

from repro.accelerator.config import AcceleratorConfig
from repro.core.archive import ArchiveEntry, SearchArchive
from repro.core.evaluator import CodesignEvaluator, EvaluationResult
from repro.core.search_space import JointSearchSpace
from repro.nasbench.model_spec import ModelSpec
from repro.utils.registry import check_params, init_param_names
from repro.utils.rng import make_rng

__all__ = [
    "Checkpoint",
    "Proposal",
    "SearchResult",
    "SearchStrategy",
]


class Checkpoint:
    """Where the run driver persists/recovers mid-search state.

    Duck-typed: any object with this interface works (the ledger's
    task-bound handle, an in-memory snapshot for tests, a custom
    callback).  ``save`` receives ``{"strategy": state_dict,
    "steps_done": int}`` and must take a *snapshot* — the strategy
    keeps mutating its own state afterwards — which is why the
    provided implementations serialize immediately.
    """

    def load(self) -> dict | None:
        """Return the last saved state, or ``None`` for a fresh run."""
        raise NotImplementedError

    def save(self, state: dict) -> None:
        """Persist a snapshot of ``state``."""
        raise NotImplementedError


@dataclass(frozen=True)
class Proposal:
    """One point proposed by :meth:`SearchStrategy.ask`.

    ``phase`` labels the archive entry the driver records; ``payload``
    carries whatever the strategy needs to process the result in
    ``tell``: the REINFORCE strategies' rollout index into their
    pending :class:`repro.rl.policy.PolicyBatch`, evolution's action
    vector.  The two-tier screen passes only its survivors to ``tell``,
    each with its own payload.
    """

    spec: ModelSpec
    config: AcceleratorConfig
    phase: str = ""
    payload: object = None


@dataclass
class SearchResult:
    """Outcome of one search run."""

    strategy: str
    scenario: str
    archive: SearchArchive
    extras: dict = field(default_factory=dict)

    @property
    def best(self) -> ArchiveEntry | None:
        return self.archive.best()

    def top_k(self, k: int) -> list[ArchiveEntry]:
        return self.archive.top_k(k)

    def reward_trace(self) -> np.ndarray:
        return self.archive.reward_trace()

    def best_so_far_trace(self) -> np.ndarray:
        return self.archive.best_so_far_trace()


class SearchStrategy:
    """Base class: subclasses implement the ask/tell hooks."""

    name = "base"

    #: Whether :meth:`run` accepts a two-tier filter.  Study validation
    #: reads it too, so a spec asking for ``execution.surrogate`` with a
    #: strategy that refuses it fails before it runs.
    supports_two_tier = True

    def __init__(
        self,
        search_space: JointSearchSpace | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.search_space = search_space or JointSearchSpace()
        self.rng = make_rng(seed)
        self.archive = SearchArchive()
        self._evaluator: CodesignEvaluator | None = None

    # --- declarative construction ----------------------------------------
    @classmethod
    def allowed_params(cls) -> list[str] | None:
        """Parameter names :meth:`from_params` accepts for this class.

        The constructor's keyword hyper-parameters — everything except
        ``search_space`` and ``seed``, which the caller supplies
        positionally.  Shared by :meth:`from_params` and the
        registry's ``validate_strategy_params`` so the two can never
        disagree on what a strategy accepts.  ``None`` when the
        constructor takes ``**kwargs``.
        """
        names = init_param_names(cls)
        if names is None:
            return None
        return [name for name in names if name not in ("search_space", "seed")]

    @classmethod
    def from_params(
        cls,
        seed: int | np.random.Generator | None,
        search_space: JointSearchSpace | None = None,
        **params,
    ) -> "SearchStrategy":
        """Construct from a flat, JSON-ready parameter mapping.

        This is the constructor the strategy registry
        (:mod:`repro.search.registry`) and the declarative
        :class:`repro.core.study.StudySpec` path use: ``params`` holds
        the strategy's keyword hyper-parameters as plain JSON values
        (nested specs like ``reinforce_config`` dicts are coerced by
        :meth:`_coerce_params`).  Unknown parameter names and values the
        constructor rejects raise :class:`ValueError` with a message
        naming the strategy and the offending field.
        """
        check_params(f"strategy {cls.name!r}", params, cls.allowed_params())
        try:
            coerced = cls._coerce_params(dict(params))
            return cls(search_space, seed=seed, **coerced)
        except (TypeError, ValueError) as err:
            raise ValueError(
                f"cannot construct strategy {cls.name!r} from params "
                f"{params!r}: {err}"
            ) from err

    @classmethod
    def _coerce_params(cls, params: dict) -> dict:
        """Turn JSON-ready parameter values into constructor arguments.

        The base implementation understands the ``reinforce_config``
        dict shared by the REINFORCE strategies; subclasses extend it
        (and call super) for their own structured parameters.
        """
        config = params.get("reinforce_config")
        if isinstance(config, dict):
            from repro.rl.reinforce import ReinforceConfig

            params["reinforce_config"] = ReinforceConfig(**config)
        return params

    # --- ask/tell hooks ---------------------------------------------------
    def setup(self, evaluator: CodesignEvaluator, num_steps: int) -> None:
        """Reset per-run state.  Subclasses extend (and call super)."""
        self.archive = SearchArchive()
        self._evaluator = evaluator

    def ask(self, n: int) -> list[Proposal]:
        """Propose up to ``n`` points (``[]`` ends the search early)."""
        raise NotImplementedError

    def tell(self, proposals: list[Proposal], results: list[EvaluationResult]) -> None:
        """Learn from the results of the last ask; the default learns nothing.

        ``proposals`` are the evaluated ones, in the order asked; in
        two-tier mode they are the screen's survivors only, so state
        kept per proposal since :meth:`ask` is found through
        :attr:`Proposal.payload`.  The driver has already recorded each
        result in :attr:`archive` (in this order) and refuses a
        strategy whose ``tell`` records any more.
        """

    def finish(self) -> SearchResult:
        """Package the archive once the step budget is spent."""
        return self._result(self.archive, self._evaluator)

    # --- checkpoint/resume ------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot everything future proposals depend on.

        Only valid at a batch boundary (after :meth:`tell`, before the
        next :meth:`ask`) — which is the only place the run driver
        calls it.  Subclasses extend the returned dict (and call
        super); every value must survive
        :func:`repro.parallel.ledger.encode_state` round-trips.
        """
        return {
            "name": self.name,
            "rng": self.rng.bit_generator.state,
            "archive": SearchArchive(entries=list(self.archive.entries)),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot, in place.

        Called after :meth:`setup` on a freshly constructed strategy
        (same constructor arguments and seed as the checkpointed one),
        so anything ``setup`` derives from the RNG is simply
        overwritten here.
        """
        if state.get("name") != self.name:
            raise ValueError(
                f"checkpoint belongs to strategy {state.get('name')!r}, "
                f"cannot restore into {self.name!r}"
            )
        self.rng.bit_generator.state = state["rng"]
        self.archive = SearchArchive(entries=list(state["archive"].entries))

    # --- the driver -------------------------------------------------------
    def run(
        self,
        evaluator: CodesignEvaluator,
        num_steps: int,
        batch_size: int = 1,
        checkpoint: Checkpoint | None = None,
        checkpoint_every: int = 1,
        two_tier: "TwoTierFilter | None" = None,
    ) -> SearchResult:
        """Drive the ask/tell loop for ``num_steps`` evaluations.

        ``batch_size`` controls how many proposals are evaluated per
        :meth:`ask`; at 1 the search is bit-identical to the historic
        per-point loop.  Each batch is one ``evaluate_batch`` call on
        the strategy's armed evaluator (``evaluator`` unless the
        strategy re-arms it).

        ``two_tier`` arms the surrogate-filtered mode
        (:class:`repro.search.two_tier.TwoTierFilter`): each iteration
        asks for an inflated batch, keeps only the top surrogate-ranked
        slice, and exact-evaluates just that slice — which is also all
        that is told, archived, and counted against ``num_steps``, so
        every recorded result is still exact.

        ``checkpoint`` makes the run resumable: a state found in it is
        restored (skipping the already-told steps) before the loop, and
        the state is saved back every ``checkpoint_every`` batches and
        after the last batch, also when :meth:`ask` ends the search
        early.  Since evaluation is pure, a resumed run replays at most
        ``checkpoint_every`` batches and finishes bit-identical to an
        uninterrupted one.

        Each save hands over the *full* state, archive included, which
        keeps resume simple and exact.  What a save costs is up to the
        checkpoint: the run ledger's
        (:class:`~repro.parallel.ledger.LedgerCheckpoint`) writes only
        the entries archived since its last save, plus the rest of the
        state, so its cost does not grow with the run.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if two_tier is not None and not self.supports_two_tier:
            raise ValueError(
                f"strategy {self.name!r} does not support two-tier surrogate "
                "filtering"
            )
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        self.setup(evaluator, num_steps)
        remaining = num_steps
        if checkpoint is not None:
            saved = checkpoint.load()
            if saved is not None:
                self.load_state_dict(saved["strategy"])
                remaining = num_steps - int(saved["steps_done"])

        def save() -> None:
            checkpoint.save(
                {"strategy": self.state_dict(), "steps_done": num_steps - remaining}
            )

        batches = 0
        while remaining > 0:
            k = min(batch_size, remaining)
            proposals = self.ask(two_tier.ask_size(k) if two_tier else k)
            if not proposals:
                break
            if two_tier is not None and len(proposals) > k:
                # Surrogate tier: rank the inflated ask, keep the top
                # slice (ascending positions).  A short ask (phase or
                # stage boundary) skips filtering — nothing to discard.
                proposals = [proposals[i] for i in two_tier.select(proposals, k)]
            if len(proposals) > remaining:
                raise RuntimeError(
                    f"{self.name}.ask returned {len(proposals)} proposals "
                    f"with only {remaining} steps remaining"
                )
            results = self._evaluator.evaluate_batch(
                [(p.spec, p.config) for p in proposals]
            )
            for proposal, result in zip(proposals, results):
                self.archive.record(result, phase=proposal.phase)
            recorded = len(self.archive)
            self.tell(proposals, results)
            if len(self.archive) != recorded:
                raise RuntimeError(
                    f"strategy {self.name!r} changed the archive in tell(); "
                    "the run driver records every result itself"
                )
            remaining -= len(proposals)
            batches += 1
            if checkpoint is not None and batches % checkpoint_every == 0:
                save()
        if checkpoint is not None and batches % checkpoint_every != 0:
            save()  # the last batch, off-cadence or after an early stop
        return self.finish()

    def _result(self, archive: SearchArchive, evaluator: CodesignEvaluator, **extras) -> SearchResult:
        return SearchResult(
            strategy=self.name,
            scenario=evaluator.reward_fn.config.name,
            archive=archive,
            extras=extras,
        )
