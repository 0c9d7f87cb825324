"""Subprocess entry point that executes one leased study.

The server's worker threads never run searches themselves — they spawn
``python -m repro.server.runner`` (own session, own process group) and
only heartbeat the lease while it lives.  This process loads the
queued spec, runs it through :func:`repro.core.study.run_study`
against the study's *own* run ledger (so every repeat and checkpoint
is crash-safe), and reports the terminal state back to the queue:

* success    -> ``finish_study`` with the JSON outcome summary, which
  is discarded (exit 3) if the study was cancelled or re-leased
* exception  -> ``fail_study`` with the traceback tail
* SIGKILL    -> nothing; the queue row stays ``running`` with a stale
  heartbeat and the next worker to reclaim it resumes from the ledger

Both writes name the lease holder ``--worker`` (the spawning thread).

``--import MODULE`` (repeatable) imports plugin modules before the
spec is materialized, so deployments can register extra accuracy
sources / hardware platforms / strategies without forking the CLI —
it is also how the durability tests slow a study down enough to be
killed mid-flight.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
import traceback
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.server.runner",
        description="execute one queued study (internal; spawned by repro serve)",
    )
    parser.add_argument("--queue", required=True, type=Path)
    parser.add_argument("--study-id", required=True)
    parser.add_argument("--worker", required=True)
    parser.add_argument("--ledger", required=True, type=Path)
    parser.add_argument("--cache", required=True, type=Path)
    parser.add_argument("--scale", default=None)
    parser.add_argument("--import", dest="imports", action="append", default=[])
    args = parser.parse_args(argv)

    for module in args.imports:
        importlib.import_module(module)

    from repro.core.study import StudySpec, outcome_summary, run_study
    from repro.experiments.common import Scale
    from repro.parallel.ledger import LedgerError, RunLedger

    queue = RunLedger(args.queue)
    row = queue.study(args.study_id)
    if row is None:
        print(f"unknown study {args.study_id!r}", file=sys.stderr)
        return 2
    scale = (
        Scale.named(args.scale) if args.scale else Scale.from_env(default="smoke")
    )
    try:
        spec = StudySpec.from_dict(row["spec"])
        result = run_study(
            spec, scale=scale, eval_cache=args.cache, ledger=args.ledger
        )
    except BaseException:
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        try:
            queue.fail_study(args.study_id, args.worker, error[-2000:], time.time())
        except LedgerError:
            pass  # cancelled or reclaimed while we were dying
        return 1
    payload = {
        "name": spec.name,
        "scale": scale.name,
        "outcomes": outcome_summary(result),
    }
    try:
        queue.finish_study(args.study_id, args.worker, payload, time.time())
    except LedgerError as err:
        # Cancelled, or re-leased to another holder after ours went
        # stale: the queue's word stands, this result is discarded.
        print(f"result discarded: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
