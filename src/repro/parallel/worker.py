"""External cluster worker: ``python -m repro.parallel.worker``.

Joins a ``backend="cluster"`` run from anywhere that can see the run's
state files — another terminal, another container, another machine
sharing the state directory.  The worker needs nothing but the
ledger path: the coordinating run pinned its full
:class:`~repro.core.study.StudySpec` into the ledger (``run_grid``'s
``ledger_context``), so the worker rebuilds the exact same job bag
with :func:`repro.core.study.build_study` and enters the lease
claim loop (:func:`repro.parallel.cluster.run_worker`).

Elasticity is free: start as many workers as you like, whenever you
like; kill any of them whenever you like.  Claimed-but-unfinished
tasks re-appear after their lease heartbeat goes stale and are resumed
from their last checkpoint by whoever claims them next.  Results are
bit-identical regardless of how many workers ran, joined, or died.

Typical session (see ``docs/reproducing.md`` for the full walkthrough)::

    # terminal 1 — the coordinating run
    repro study run fig5 --set execution.backend=cluster \\
        --set execution.workers=2 \\
        --set execution.ledger=state/fig5.ledger \\
        --set execution.cache=state/evals.sqlite

    # terminals 2..N — extra workers, local or remote
    repro worker --ledger state/fig5.ledger --cache state/evals.sqlite

Custom strategies / accuracy sources / platforms registered by plugin
modules must be importable here too: pass ``--import mymodule`` (the
same hook ``repro serve`` uses).
"""

from __future__ import annotations

import argparse
import importlib
import os
import socket
import sys
import time

from repro.parallel.cache import EvalCache
from repro.parallel.cluster import run_worker
from repro.parallel.ledger import RunLedger, check_lease_timing

__all__ = ["main"]


def _build_parser(prog: str | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog or "python -m repro.parallel.worker",
        description=(
            "Join a cluster-backend run: claim ledger-leased (job, repeat) "
            "tasks, run them, and record their results."
        ),
    )
    parser.add_argument(
        "--ledger",
        required=True,
        help="run-ledger file of the coordinating run (its task_leases "
        "table is the cluster's coordination substrate)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        help="shared EvalCache file (default: the pinned spec's "
        "execution.cache, if any)",
    )
    parser.add_argument(
        "--import",
        dest="imports",
        action="append",
        default=[],
        metavar="MODULE",
        help="import MODULE before building jobs (registers plugin "
        "strategies/sources/platforms/backends); repeatable",
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        help="lease-owner name (default: <hostname>-<pid>)",
    )
    parser.add_argument(
        "--wait",
        type=float,
        default=0.0,
        help="seconds to wait for the coordinating run to pin its "
        "configuration before giving up (default: fail immediately)",
    )
    parser.add_argument(
        "--stale-after",
        type=float,
        default=10.0,
        help="seconds without a heartbeat before another worker's lease "
        "is considered abandoned (default: 10; match the coordinator)",
    )
    parser.add_argument(
        "--heartbeat-every",
        type=float,
        default=1.0,
        help="seconds between liveness stamps on a held lease (default: 1)",
    )
    parser.add_argument(
        "--poll-every",
        type=float,
        default=0.2,
        help="idle sleep between claim attempts (default: 0.2)",
    )
    parser.add_argument(
        "--max-tasks",
        type=int,
        default=None,
        help="exit after recording this many tasks (default: stay until "
        "the whole run is done)",
    )
    return parser


def _load_pinned_config(ledger: RunLedger, wait: float) -> dict:
    deadline = time.time() + max(wait, 0.0)
    while True:
        config = ledger.run_config()
        if config is not None:
            return config
        if time.time() >= deadline:
            raise SystemExit(
                f"ledger {ledger.path} has no pinned run configuration yet "
                "— start the coordinating run first (it pins the config in "
                "begin_run), or pass --wait SECONDS to poll for it"
            )
        time.sleep(0.5)


def main(argv: list[str] | None = None, prog: str | None = None) -> int:
    parser = _build_parser(prog)
    args = parser.parse_args(argv)
    try:
        check_lease_timing(args.stale_after, args.heartbeat_every, args.poll_every)
    except ValueError as err:
        parser.error(str(err))
    for module in args.imports:
        importlib.import_module(module)

    # Imported late so `--import` plugins are registered first and a
    # bare `--help` stays fast.
    from repro.core.study import StudySpec, build_study

    ledger = RunLedger(args.ledger)
    config = _load_pinned_config(ledger, args.wait)
    context = config.get("context") or {}
    spec_dict = context.get("study_spec")
    if not spec_dict:
        raise SystemExit(
            f"ledger {ledger.path} was not created by a spec-driven run "
            "(no study_spec in its pinned context) — external workers "
            "rebuild their jobs from the pinned StudySpec, so the "
            "coordinating run must go through run_study / `repro study "
            "run` / `repro submit`"
        )
    spec = StudySpec.from_dict(spec_dict)

    cache_path = args.cache if args.cache is not None else spec.execution.cache
    store = EvalCache(cache_path) if cache_path is not None else None

    study = build_study(spec, store=store)
    pinned_labels = set(config.get("labels") or [])
    built_labels = {job.label for job in study.jobs}
    if not pinned_labels <= built_labels:
        missing = sorted(pinned_labels - built_labels)
        raise SystemExit(
            f"rebuilt study does not cover the pinned job labels (missing "
            f"{missing}) — registry drift or a missing --import plugin?"
        )

    worker_id = args.worker_id or f"{socket.gethostname()}-{os.getpid()}"
    print(
        f"worker {worker_id}: joining {ledger.path} "
        f"({len(pinned_labels)} jobs x {config['num_repeats']} repeats)",
        flush=True,
    )
    recorded = run_worker(
        study.jobs,
        ledger,
        # The pinned numbers are authoritative: they are what begin_run
        # validated, and a worker whose environment (e.g. REPRO_SCALE)
        # resolves the spec differently must not diverge from them.
        num_steps=config["num_steps"],
        num_repeats=config["num_repeats"],
        master_seed=config["master_seed"],
        batch_size=config["batch_size"],
        checkpoint_every=spec.execution.checkpoint_every,
        cache=store,
        worker_id=worker_id,
        stale_after=args.stale_after,
        heartbeat_every=args.heartbeat_every,
        poll_every=args.poll_every,
        max_tasks=args.max_tasks,
    )
    if store is not None:
        store.close()
    ledger.close()
    print(f"worker {worker_id}: recorded {recorded} task(s); run complete or "
          "max-tasks reached", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
