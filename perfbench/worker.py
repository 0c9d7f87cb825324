"""One study in a fresh interpreter: the process the benchmark measures.

``run.py`` starts this script once per measurement, with the working
directory set to a fresh empty directory (the pinned specs name their
ledger and eval-cache files relative to it) and ``REPRO_CACHE_DIR``
pointing at a fresh copy of the prepared cache.  Modes:

``full``
    Run the workload's study with one ``run_study`` call and report the
    end-to-end numbers, the output checks and a seeded sample of
    archived points.  With ``--trace 1`` every layer's public calls are
    wrapped in spans and the per-layer numbers are reported too.
``setup``
    Build the same study, stop at the first search start (one more
    set-up sample), then re-score the sample another ``full`` process
    archived through the scalar ``CodesignEvaluator.evaluate`` of this
    freshly built study.
``warm``
    Run the study for two steps to fill the on-disk caches.

Untraced ``full`` and ``setup`` processes time a fixed kernel from a
timer signal throughout (see ``hostspeed.py``) and report their set-up
and search times both in wall seconds and in reference seconds.  The
traced study runs without the timer, so no span holds a kernel run.

The result is one JSON object written to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Archived points a ``full`` study hands to the ``setup`` re-score.
SAMPLE_SIZE = 32


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="pinned StudySpec JSON file")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("full", "setup", "warm"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spawned", type=float, required=True,
        help="time.monotonic() of the parent just before it started this process",
    )
    parser.add_argument("--out", required=True, help="where to write the JSON result")
    parser.add_argument("--sample", required=True, help="pickle of archived points")
    return parser.parse_args(argv)


def _point_key(metrics, reward: float) -> list:
    """Bit-exact identity of one evaluation (floats as hex strings)."""
    values = (
        None
        if metrics is None
        else [float(v).hex() for v in (metrics.accuracy, metrics.latency_s, metrics.area_mm2)]
    )
    return [values, float(reward).hex()]


def _archived(result, study) -> list[tuple[str, int, object]]:
    """(job label, repeat, archive entry) for every archived step."""
    out = []
    for label, (outcome_key, strategy) in study.job_meta.items():
        for repeat, search in enumerate(result.outcomes[outcome_key][strategy].results):
            out.extend((label, repeat, entry) for entry in search.archive.entries)
    return out


def _rescorable(archived, study) -> tuple[list, int]:
    """Archived points a fresh scalar evaluation must reproduce exactly.

    Each (platform, scenario) evaluator memoizes accuracy and latency
    per ``spec_hash``, which is isomorphism-invariant.  A cell met again
    in another isomorphic layout therefore carries the values of the
    layout met first, and a source whose features are not
    isomorphism-invariant (the CIFAR-100 trainer's parameter and MAC
    counts) scores the two layouts differently.  Those re-visits are
    left out of the sample and counted instead.
    """
    first_layout: dict[tuple, tuple] = {}
    keep, revisits = [], 0
    for item in archived:
        label, _repeat, entry = item
        spec = entry.spec
        if spec.valid:
            layout = (spec.matrix.tobytes(), tuple(spec.ops))
            key = (study.job_meta[label][0], spec.spec_hash())
            if first_layout.setdefault(key, layout) != layout:
                revisits += 1
                continue
        keep.append(item)
    return keep, revisits


def _quality(summary: dict) -> dict:
    """best_reward and hit_rate over every (outcome, strategy, repeat)."""
    best, repeats = [], 0
    for by_strategy in summary.values():
        for row in by_strategy.values():
            best.extend(row["best_rewards"])
            repeats += row["repeats"]
    return {
        "best_reward": sum(best) / len(best) if best else None,
        "hit_rate": len(best) / repeats,
    }


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MiB.

    Read from ``VmHWM`` because ``ru_maxrss`` also counts the parent's
    memory that a forked child held before it exec'd this interpreter.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _runtime() -> dict:
    """Interpreter, NumPy and BLAS identity of this process."""
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def rescore(study, points) -> list[dict]:
    """Archived points whose scalar re-evaluation differs, bit for bit."""
    from repro.core.scenarios import cifar100_threshold
    from repro.search.threshold_schedule import ThresholdScheduleSearch

    jobs = {job.label: job for job in study.jobs}
    mismatches = []
    for point in points:
        job = jobs[point["label"]]
        evaluator = job.evaluator_factory()
        strategy = job.strategy_factory(0)
        config = strategy.search_space.accelerator_space.config_at(point["config_index"])
        if isinstance(strategy, ThresholdScheduleSearch):
            # The schedule archives each rung's points under that rung's
            # reward (phase "th-<threshold>").
            rung = next(
                r for r in strategy.rungs if f"th-{r.threshold:g}" == point["phase"]
            )
            evaluator = evaluator.with_reward(
                cifar100_threshold(rung.threshold, strategy.bounds)
            )
        result = evaluator.evaluate(point["spec"], config)
        got = _point_key(result.metrics, result.reward.value)
        if got != point["expect"]:
            mismatches.append(
                {
                    "label": point["label"],
                    "step": point["step"],
                    "archived": point["expect"],
                    "rescored": got,
                }
            )
    return mismatches


def main(argv=None) -> int:
    args = parse_args(argv)
    import hostspeed

    speed = hostspeed.HostSpeed()
    if args.mode != "warm" and not args.trace:
        speed.start()
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.study import StudySpec, outcome_summary, run_study
    from repro.parallel.cache import EvalCache

    imported = time.monotonic()
    import instrument
    import tracing

    probe = instrument.Probe(stop_at_search=args.mode == "setup")
    instrument.install_probe(probe)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(clock=time.monotonic)
        instrument.install_spans(tracer)

    data = json.loads(Path(args.spec).read_text())
    data["execution"]["master_seed"] = args.seed
    if args.mode == "warm":
        data["execution"].update(num_steps=2, num_repeats=1)
    spec = StudySpec.from_dict(data)
    out: dict = {"mode": args.mode, "runtime": _runtime()}

    if args.mode == "setup":
        try:
            run_study(spec)
        except instrument.SetupDone:
            pass
        else:
            raise RuntimeError("the study returned without starting a search")
        speed.stop()
        with open(args.sample, "rb") as handle:
            points = pickle.load(handle)
        out.update(
            setup_s=probe.search_start - args.spawned,
            setup_ref_s=speed.reference_seconds(args.spawned, probe.search_start),
            rescored=len(points),
            mismatches=rescore(probe.study, points),
        )
    elif args.mode == "warm":
        run_study(spec)
    else:
        cache = EvalCache(spec.execution.cache) if spec.execution.cache else None
        if tracer is None:
            result = run_study(spec, eval_cache=cache)
        else:
            with tracer.span("study"):
                result = run_study(spec, eval_cache=cache)
        finished = time.monotonic()
        speed.stop()
        study = probe.study
        archived = _archived(result, study)
        summary = outcome_summary(result)
        digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
        steps = len(archived)
        feasible = sum(1 for _label, _repeat, entry in archived if entry.feasible)
        out.update(
            setup_s=probe.search_start - args.spawned,
            search_s=finished - probe.search_start,
            kernel_s=speed.kernel_seconds(probe.search_start, finished),
            steps=steps,
            expected_steps=len(study.jobs) * study.num_repeats * study.num_steps,
            peak_rss_mb=_peak_rss_mb(),
            gpu_hours=probe.gpu_hours,
            digest=digest,
            **_quality(summary),
        )
        if not args.trace:
            out.update(
                setup_ref_s=speed.reference_seconds(args.spawned, probe.search_start),
                search_ref_s=speed.reference_seconds(probe.search_start, finished),
            )
        candidates, revisits = _rescorable(archived, study)
        out["isomorphic_revisits"] = revisits
        picked = random.Random(args.seed).sample(
            candidates, min(SAMPLE_SIZE, len(candidates))
        )
        spaces = {
            job.label: job.strategy_factory(0).search_space.accelerator_space
            for job in study.jobs
        }
        # Configs travel as flat indices into the job's space: platform
        # config classes are immutable and need not be picklable.
        points = [
            {
                "label": label,
                "step": entry.step,
                "phase": entry.phase,
                "spec": entry.spec,
                "config_index": spaces[label].index_of(entry.config),
                "expect": _point_key(entry.metrics, entry.reward),
            }
            for label, _repeat, entry in picked
        ]
        with open(args.sample, "wb") as handle:
            pickle.dump(points, handle)
        if tracer is not None:
            out["spans"] = len(tracer)
            out["layers"] = instrument.layer_metrics(
                tracer,
                probe,
                spawned=args.spawned,
                imported=imported,
                finished=finished,
                steps=steps,
                feasible=feasible,
                ledger_bytes=(
                    os.path.getsize(spec.execution.ledger) if spec.execution.ledger else 0
                ),
                evalcache_hit_rate=cache.stats["hit_rate"] if cache is not None else 0.0,
            )
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
