"""The repo's benchmark: one codesign study per workload, end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bert-u50 --seed 0 --seconds 20 --trace 0

Each measurement is one ``repro.core.study.run_study`` call of a pinned
study spec (``perfbench/workloads/<name>.json``) in a fresh interpreter
on the serial backend: one process, one study at a time, a closed loop
with a single client.  The ``k``-th study of a run at ``--seed n`` runs
with ``execution.master_seed = 8 n + k`` (:func:`study_seed`).

An untraced run alternates ``full`` studies with ``setup`` processes
until ``--seconds`` have passed (at least one of each).  A ``setup``
process builds the study before it, stops at its first search (one
more set-up sample) and re-scores a seeded sample of that study's
archived points through the scalar ``CodesignEvaluator.evaluate``.  The
run reports the search throughput over all its studies and medians of
the other end-to-end metrics; times are in reference seconds
(``hostspeed.py``).  A traced run (``--trace 1``) runs one untraced
study, one re-score process and the same study again with every
layer's public calls wrapped in spans; it reports the per-layer
metrics.

Every process reads a fresh copy of a benchmark-owned
``REPRO_CACHE_DIR``, prepared once per version of the code by an
untimed warm-up, and writes its ledger and eval-cache files into its
own empty directory.  The last line of standard output is the JSON
result; the line before it is a report with provenance, every sample
and every check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import zipfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench-state"
WORKER = HERE / "worker.py"

#: The seed a run uses unless told otherwise, and the held-out seed a
#: claimed gain is re-checked on.
DEFAULT_SEED = 0
HELDOUT_SEED = 7

#: One pinned StudySpec per workload name.
WORKLOADS = sorted(p.stem for p in (HERE / "workloads").glob("*.json"))

#: Environment pinned for every measured process: one BLAS thread, a
#: fixed string-hash seed.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: At most this many full studies in one untraced run.
MAX_FULL = 8
#: A run ends within this many seconds (warm-up excepted).
RUN_BUDGET_S = 170.0


class WorkerFailed(RuntimeError):
    """A measured process exited non-zero or ran out of time."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Prepared cache state
# ---------------------------------------------------------------------------

def cache_digest(cache_dir: Path) -> str:
    """Content digest of a cache directory.

    ``.npz`` archives hash by member name and payload, so zip
    timestamps never make two equal states look different.
    """
    digest = hashlib.sha256()
    for path in sorted(p for p in cache_dir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(cache_dir)).encode() + b"\0")
        if path.suffix == ".npz":
            with zipfile.ZipFile(path) as archive:
                for name in sorted(archive.namelist()):
                    digest.update(name.encode() + b"\0")
                    with archive.open(name) as member:
                        while chunk := member.read(1 << 20):
                            digest.update(chunk)
        else:
            digest.update(path.read_bytes())
    return digest.hexdigest()


def cache_listing(cache_dir: Path) -> dict[str, tuple[int, int]]:
    """Relative path -> (size, mtime) of every file in a cache directory."""
    listing = {}
    for path in cache_dir.rglob("*"):
        if path.is_file():
            stat = path.stat()
            listing[str(path.relative_to(cache_dir))] = (stat.st_size, stat.st_mtime_ns)
    return listing


def prepared_cache(source: str, deadline: float) -> tuple[Path, str]:
    """The prepared ``REPRO_CACHE_DIR`` and its digest, built if missing.

    The warm-up runs every workload's study for two steps against an
    empty cache directory, which builds the enumerated-space bundle and
    fits the surrogate artifacts.  The directory is named after
    ``source`` (see :func:`source_digest`), so a checkout that moves to
    other code never measures a bundle or surrogate that other code
    built.  It is published by renaming, so an interrupted warm-up
    never leaves a half-filled state behind.
    """
    prepared = STATE / f"prepared-{source[:16]}"
    marker = prepared / "digest.txt"
    if marker.is_file():
        digest = cache_digest(prepared / "cache")
        if marker.read_text().strip() == digest:
            return prepared / "cache", digest
        shutil.rmtree(prepared)
    STATE.mkdir(exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix="prepare-", dir=STATE))
    try:
        cache = staging / "cache"
        cache.mkdir()
        for name in WORKLOADS:
            spawn(staging / name, cache, name, DEFAULT_SEED, "warm", 0,
                  staging / "unused.pickle", deadline)
            shutil.rmtree(staging / name)
        digest = cache_digest(cache)
        (staging / "digest.txt").write_text(digest + "\n")
        try:
            staging.rename(prepared)
        except OSError:
            if not (prepared / "digest.txt").is_file():
                raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return prepared / "cache", digest


# ---------------------------------------------------------------------------
# Measured processes
# ---------------------------------------------------------------------------

def spawn(
    workdir: Path,
    cache: Path,
    workload: str,
    seed: int,
    mode: str,
    trace: int,
    sample: Path,
    deadline: float,
) -> dict:
    """Run one worker in a fresh interpreter and return its result.

    The worker runs in ``workdir`` (created empty) with ``cache`` as
    its ``REPRO_CACHE_DIR``.
    """
    workdir.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "REPRO_SCALE"}
    env.update(PINNED_ENV, REPRO_CACHE_DIR=str(cache))
    out = workdir / "result.json"
    log = workdir / "worker.log"
    spawned = time.monotonic()
    command = [
        sys.executable, str(WORKER),
        "--spec", str(HERE / "workloads" / f"{workload}.json"),
        "--seed", str(seed),
        "--mode", mode,
        "--trace", str(trace),
        "--spawned", repr(spawned),
        "--out", str(out),
        "--sample", str(sample),
    ]
    with open(log, "wb") as handle:
        try:
            proc = subprocess.run(
                command, cwd=workdir, env=env, stdout=handle, stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - spawned),
            )
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{mode} worker for {workload} ran out of time") from None
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-3000:]
        raise WorkerFailed(f"{mode} worker for {workload} exited {proc.returncode}:\n{tail}")
    result = json.loads(out.read_text())
    result["wall_s"] = time.monotonic() - spawned
    return result


def study_seed(seed: int, index: int) -> int:
    """``master_seed`` of the ``index``-th study of a run at ``seed``.

    Each study of a run draws its own seed, so a run's figures average
    over several seeds' work as well as over the host's speed.
    """
    return seed * MAX_FULL + index


def study_problems(result: dict, reference: dict | None) -> list[str]:
    """What is wrong with one full study's outputs (empty when correct).

    ``reference`` is an untraced study of the same seed, whose outcome
    this one must reproduce exactly.
    """
    problems = []
    if result["steps"] != result["expected_steps"]:
        problems.append(
            f"archived {result['steps']} steps, expected {result['expected_steps']}"
        )
    if result["best_reward"] is None:
        problems.append("no repeat found a feasible point")
    if reference is not None:
        for key in ("digest", "gpu_hours"):
            if result[key] != reference[key]:
                problems.append(f"{key} differs from the untraced study of this seed")
    return problems


def rescore_problems(result: dict) -> list[str]:
    mismatches = result["mismatches"]
    if result["rescored"] == 0:
        return ["no archived point was re-scored"]
    if mismatches:
        return [
            f"{len(mismatches)} of {result['rescored']} re-scored points differ "
            f"from the archive, e.g. {mismatches[0]}"
        ]
    return []


def measure(args, prepared: Path, run_dir: Path, deadline: float) -> dict:
    """Run the processes of one benchmark run; their results and checks.

    Every process starts from a fresh copy of the prepared cache and
    its own empty directory, so no ledger or eval cache is ever shared
    or resumed.  A process that adds to or rewrites its cache copy did
    work inside its timed set-up that the warm-up should have done, and
    fails the run.
    """
    runs: dict = {"full": [], "setup": [], "traced": None}
    problems: list[str] = []
    failed = 0
    expected = cache_listing(prepared)

    def run(mode: str, trace: int, study: int) -> dict:
        """One process for the ``study``-th study of the run.

        A ``setup`` process re-scores the sample that the ``full``
        study of the same index archived.
        """
        index = len(runs["full"]) + len(runs["setup"]) + bool(runs["traced"]) + 1
        workdir = run_dir / f"{index:02d}-{mode}{'-traced' if trace else ''}"
        cache = run_dir / f"cache-{index:02d}"
        shutil.copytree(prepared, cache)
        sample = run_dir / f"sample-{study:02d}{'-traced' if trace else ''}.pickle"
        seed = study_seed(args.seed, study)
        try:
            result = spawn(workdir, cache, args.workload, seed, mode, trace, sample, deadline)
            result["seed"] = seed
            changed = sorted(
                name for name, stat in cache_listing(cache).items()
                if expected.get(name) != stat
            )
            result["cache_writes"] = changed
            return result
        finally:
            shutil.rmtree(cache)

    def check(result: dict, found: list[str]) -> None:
        nonlocal failed
        if result["cache_writes"]:
            found = found + [f"{result['mode']} process wrote {result['cache_writes']} "
                             "into the prepared cache"]
        failed += bool(found)
        problems.extend(found)

    started = time.monotonic()
    while not runs["full"] or (
        not args.trace
        and time.monotonic() - started < args.seconds
        and len(runs["full"]) < MAX_FULL
    ):
        study = len(runs["full"])
        result = run("full", 0, study)
        check(result, study_problems(result, None))
        runs["full"].append(result)
        result = run("setup", 0, study)
        check(result, rescore_problems(result))
        runs["setup"].append(result)
    if args.trace:
        runs["traced"] = run("full", 1, 0)
        check(runs["traced"], study_problems(runs["traced"], runs["full"][0]))
    attempted = len(runs["full"]) + len(runs["setup"]) + bool(runs["traced"])
    return {"runs": runs, "problems": problems, "attempted": attempted, "failed": failed}


def end_to_end(runs: dict, clock: str = "ref") -> dict[str, float]:
    """The end-to-end metrics of an untraced run.

    Times are in reference seconds (``clock="ref"``, see
    ``hostspeed.py``) or in wall seconds (``clock="wall"``).
    """
    full = runs["full"]
    first = full[0]
    if clock == "ref":
        search = [r["search_ref_s"] for r in full]
        setup = [r["setup_ref_s"] for r in full + runs["setup"]]
    else:
        search = [r["search_s"] - r["kernel_s"] for r in full]
        setup = [r["setup_s"] for r in full + runs["setup"]]
    return {
        "search_steps_per_s": sum(r["steps"] for r in full) / sum(search),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
        "best_reward": first["best_reward"],
        "hit_rate": first["hit_rate"],
    }


def per_layer(runs: dict) -> dict[str, float]:
    traced = runs["traced"]
    untraced = runs["full"][0]
    layers = dict(traced["layers"])
    # The traced study runs without the calibration kernel; compare it
    # with the untraced study's wall time less its kernel runs.
    layers["trace.overhead"] = (
        traced["search_s"] / (untraced["search_s"] - untraced["kernel_s"]) - 1.0
    )
    return layers


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def source_digest() -> str:
    """Digest of every file under ``src/`` and ``perfbench/``.

    It names the code that is measured and the specs and warm-up that
    prepare its cache.
    """
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def provenance(source: str, cache: str, runtime: dict) -> dict:
    return {
        "git_commit": git_commit(),
        "source_digest": source,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "kernel": platform.release(),
        **runtime,
        "thread_env": {
            k: os.environ.get(k) for k in PINNED_ENV if k != "PYTHONHASHSEED"
        },
        "worker_env": PINNED_ENV,
        "cache_digest": cache,
    }


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists for a run."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in listed["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the running worker instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    source = source_digest()
    prepared, cache = prepared_cache(source, started + 900.0)
    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        measured = measure(args, prepared, run_dir, deadline)
    except WorkerFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    runs = measured["runs"]
    problems = measured["problems"]
    failed = measured["failed"]
    values = per_layer(runs) if args.trace else end_to_end(runs)
    units = metric_units(args.trace)
    missing = sorted(name for name in units if values.get(name) is None)
    if missing:
        problems.append(f"no value for {missing}")
        failed += 1
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(source, cache, runs["full"][0]["runtime"]),
        "problems": problems,
        "wall_clock_metrics": None if args.trace else end_to_end(runs, clock="wall"),
        "runs": runs,
    }
    print(json.dumps(report, sort_keys=True))
    correct = not problems
    result = {
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": values.get(name), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
