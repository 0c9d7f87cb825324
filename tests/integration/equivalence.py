"""One equivalence matrix: a study returns the same bits however it runs.

The paper's strategy comparisons hold only if a study's results depend
on its spec and nothing else.  This module runs one small spec (three
strategies on the CIFAR-10 ``surrogate`` accuracy source, 16 steps x 2
repeats, a checkpoint every 2 batches) in every *cell* of six axes:

=========  ==================================================
backend    serial, process, cluster (two workers each)
batch      1, 4, 16 proposals per ``evaluate_batch`` call
cache      none, cold (empty file), warm (filled by a serial run)
run        uninterrupted, or SIGKILLed mid-run and then resumed
front      local ``run_study``, or ``repro serve`` over HTTP
mode       exact, or two-tier (surrogate screen, exact_fraction 0.5)
=========  ==================================================

A cell's outcome is one digest per (job label, repeat): the sha256 of
``encode_state`` of its ``SearchResult``, read from ``run_study``'s
result or, for a served cell, from the study's run ledger.  Every cell
must equal its *reference cell* (serial, local, no cache,
uninterrupted) at the same batch and mode, and re-running the finished
cell's ledger must evaluate nothing.  The served front end always
attaches a cache shard, so (served, none) is the one infeasible pair.

A killed cell stops at a deterministic point: a generated plugin
(imported by the run's subprocess, or by the server's runners through
``--import``) makes the first process to reach its N-th evaluated batch
write its pid and SIGSTOP itself.  The test then SIGKILLs that cluster
worker (the run must finish on its own), the process group of a local
serial or process run (resumed in-process), or the server and then the
runner (a fresh server resumes the study).

``test_equivalence.py`` runs a pairwise covering table of cells in
tier-1.  This module, which ``pytest`` skips by name, runs the full
product of 180 cells::

    PYTHONPATH=src python -m pytest -q tests/integration/equivalence.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.core.evaluator import CodesignEvaluator
from repro.core.study import StudySpec, run_study
from repro.parallel import EvalCache, RunLedger
from repro.parallel.ledger import TERMINAL_STUDY_STATES, encode_state
from repro.server import StudyClient, StudyQueue

SRC = Path(__file__).resolve().parents[2] / "src"

AXES = {
    "backend": ("serial", "process", "cluster"),
    "batch": (1, 4, 16),
    "cache": ("none", "cold", "warm"),
    "run": ("uninterrupted", "killed"),
    "front": ("local", "served"),
    "mode": ("exact", "two-tier"),
}

STRATEGIES = ("random", "combined", "evolution")
NUM_STEPS = 16
NUM_REPEATS = 2
CHECKPOINT_EVERY = 2
#: A dead cluster worker's lease is re-issued a second after its last
#: heartbeat, within the run.
CLUSTER_TIMING = {"stale_after": 1.0, "heartbeat_every": 0.1, "poll_every": 0.05}
#: How long a killed server's study waits before a fresh server
#: reclaims it (its runners heartbeat every second).
SERVER_STALE_AFTER = 1.5
TIMEOUT = 120.0


class Cell(NamedTuple):
    backend: str
    batch: int
    cache: str
    run: str
    front: str
    mode: str

    @property
    def id(self) -> str:
        return "-".join(str(value) for value in self)

    @property
    def reference(self) -> "Cell":
        return Cell("serial", self.batch, "none", "uninterrupted", "local", self.mode)


def feasible(cell: Cell) -> bool:
    return not (cell.front == "served" and cell.cache == "none")


FULL_PRODUCT = [
    cell for cell in map(Cell._make, itertools.product(*AXES.values()))
    if feasible(cell)
]


def uncovered_pairs(cells) -> set:
    """Feasible pairs of axis values that no cell in ``cells`` holds."""
    def pairs(cell):
        return set(itertools.combinations(zip(Cell._fields, cell), 2))

    wanted = set().union(*map(pairs, FULL_PRODUCT))
    return wanted - set().union(*map(pairs, cells))


def cell_spec(cell: Cell) -> StudySpec:
    execution = {
        "num_steps": NUM_STEPS,
        "num_repeats": NUM_REPEATS,
        "checkpoint_every": CHECKPOINT_EVERY,
        "batch_size": cell.batch,
        "backend": cell.backend,
    }
    if cell.backend != "serial":
        execution["workers"] = 2
    if cell.backend == "cluster":
        execution["backend_params"] = CLUSTER_TIMING
    if cell.mode == "two-tier":
        execution.update(surrogate=True, exact_fraction=0.5)
    return StudySpec.from_dict(
        {
            "name": "equivalence",
            "strategies": [{"name": name} for name in STRATEGIES],
            "scenarios": ["unconstrained"],
            "evaluator": {"source": "surrogate"},
            "execution": execution,
        }
    )


def result_digest(result) -> str:
    text = json.dumps(encode_state(result), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def study_digests(study) -> dict:
    """(job label, repeat) -> digest of a ``run_study`` result."""
    return {
        (f"{key}/{strategy}", repeat): result_digest(result)
        for key, by_strategy in study.outcomes.items()
        for strategy, outcome in by_strategy.items()
        for repeat, result in enumerate(outcome.results)
    }


def ledger_digests(path: Path) -> dict:
    """(job label, repeat) -> digest of each result a ledger recorded."""
    ledger = RunLedger(path)
    config = ledger.run_config()
    return {
        (label, repeat): result_digest(ledger.load_result(label, repeat))
        for label in config["labels"]
        for repeat in range(config["num_repeats"])
    }


# ---------------------------------------------------------------------------
# Deterministic kills
# ---------------------------------------------------------------------------

STOP_PLUGIN = '''\
"""Stops the first process that reaches its {stop_at}th evaluated batch."""

import os
import signal

from repro.core.evaluator import CodesignEvaluator

_evaluate_batch = CodesignEvaluator.evaluate_batch
_batches = 0


def _evaluate_batch_or_stop(self, pairs):
    global _batches
    _batches += 1
    if _batches == {stop_at}:
        claim = "{pid_file}.%d" % os.getpid()
        with open(claim, "w") as out:
            out.write(str(os.getpid()))
        try:
            os.link(claim, "{pid_file}")  # one process wins, pid and all
            first = True
        except FileExistsError:
            first = False
        os.unlink(claim)
        if first:
            os.kill(os.getpid(), signal.SIGSTOP)
    return _evaluate_batch(self, pairs)


CodesignEvaluator.evaluate_batch = _evaluate_batch_or_stop
'''

#: A local killed cell's subprocess: the plugin, then one run_study.
RUN_SCRIPT = """\
import sys
import stop_plugin
from repro.core.study import StudySpec, run_study
spec, ledger, cache = sys.argv[1:]
run_study(StudySpec.from_file(spec), ledger=ledger, eval_cache=cache or None)
"""


def stop_at(cell: Cell) -> int:
    """The evaluated batch at which a killed cell's first process stops.

    The first batch of the step one past the first checkpoint of a
    process's second task (or of that task's only step), counting the
    surrogate screen's batch of each two-tier step.  Of a cell's two
    worker processes, the one handed more of the six tasks reaches it.
    """
    steps = -(-NUM_STEPS // cell.batch)  # ask/tell steps per task
    step = steps + min(CHECKPOINT_EVERY, steps - 1) + 1
    return (step - 1) * (2 if cell.mode == "two-tier" else 1) + 1


def assert_killed_mid_run(ledger: Path) -> None:
    """Some work was persisted before the kill, and not all of it."""
    progress = RunLedger(ledger).progress()
    assert 0 < progress["done"] + progress["checkpointed"]
    assert progress["done"] < len(STRATEGIES) * NUM_REPEATS


def write_stop_plugin(cell: Cell, directory: Path) -> Path:
    """The plugin directory; the stopped pid lands in ``directory/stopped``."""
    plugins = directory / "plugins"
    plugins.mkdir()
    (plugins / "stop_plugin.py").write_text(
        STOP_PLUGIN.format(stop_at=stop_at(cell), pid_file=directory / "stopped")
    )
    return plugins


def wait_for_stop(pid_file: Path, running) -> int:
    """The pid of the stopped process, once ``pid_file`` names it."""
    deadline = time.monotonic() + TIMEOUT
    while not pid_file.exists():
        assert running(), "the run ended before any process stopped"
        assert time.monotonic() < deadline, "no process stopped in time"
        time.sleep(0.02)
    return int(pid_file.read_text())


def kill_group(pid: int) -> None:
    try:
        os.killpg(os.getpgid(pid), signal.SIGKILL)
    except ProcessLookupError:
        pass


def child_env(*paths: Path) -> dict:
    """This environment with ``src`` and ``paths`` put first on PYTHONPATH."""
    env = dict(os.environ)
    inherited = [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *map(str, paths), *inherited])
    return env


def kill_local_run(
    cell: Cell, tmp_path: Path, ledger: Path, cache: Path | None
) -> None:
    """Run ``cell`` in a subprocess that stops itself; SIGKILL it there.

    A cluster run loses one worker and must finish on its own: the
    dead worker's task is claimed again and recorded by a live holder.
    A serial or process run loses its whole process group and is left
    for the caller to resume.
    """
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(cell_spec(cell).to_json())
    plugins = write_stop_plugin(cell, tmp_path)
    log = tmp_path / "run.log"
    with open(log, "w") as out:
        proc = subprocess.Popen(
            [sys.executable, "-c", RUN_SCRIPT, str(spec_path), str(ledger),
             str(cache or "")],
            env=child_env(plugins),
            start_new_session=True,
            stdout=out,
            stderr=subprocess.STDOUT,
        )
    try:
        pid = wait_for_stop(tmp_path / "stopped", lambda: proc.poll() is None)
        if cell.backend == "cluster":
            # The ledger is read only once no process is stopped: a
            # stopped one may hold a sqlite lock that blocks readers.
            os.kill(pid, signal.SIGKILL)
            assert proc.wait(timeout=TIMEOUT) == 0, log.read_text()[-2000:]
            rows = RunLedger(ledger).task_lease_rows()
            assert [row["state"] for row in rows] == ["done"] * (
                len(STRATEGIES) * NUM_REPEATS
            )
            # The dead worker's task was claimed again and recorded by
            # a live holder.
            reissued = [row for row in rows if row["claims"] >= 2]
            assert reissued and pid not in {row["lease_pid"] for row in reissued}
        else:
            kill_group(pid)
            assert proc.wait(timeout=TIMEOUT) == -signal.SIGKILL
            assert_killed_mid_run(ledger)
    finally:
        if proc.poll() is None:
            kill_group(proc.pid)
            proc.wait()


# ---------------------------------------------------------------------------
# The served front end
# ---------------------------------------------------------------------------

def start_server(state: Path, plugins: Path | None):
    """Boot ``repro serve`` on an ephemeral port; returns (proc, client)."""
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--state-dir", str(state),
        "--port", "0",
        "--stale-after", str(SERVER_STALE_AFTER),
    ]
    if plugins is not None:
        cmd += ["--import", "stop_plugin"]
    proc = subprocess.Popen(
        cmd,
        env=child_env(*[plugins] if plugins else []),
        start_new_session=True,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    banner = proc.stdout.readline()
    assert banner.startswith("serving on "), f"server failed to boot: {banner!r}"
    return proc, StudyClient(banner.split()[2])


def stop_server(proc) -> None:
    kill_group(proc.pid)
    proc.wait()
    proc.stdout.close()


def serve(cell: Cell, tmp_path: Path, warm_from: Path | None) -> Path:
    """Run ``cell`` through ``repro serve``; returns the study's ledger.

    A killed cell loses the server and then the runner's process group;
    the study must stay ``running`` until a fresh server on the same
    state directory reclaims and finishes it.
    """
    queue = StudyQueue(tmp_path / "state")
    spec = cell_spec(cell)
    shard = queue.cache_shard_path(spec)
    if warm_from is not None:
        shutil.copyfile(warm_from, shard)
        rows = len(EvalCache(shard))
    plugins = write_stop_plugin(cell, tmp_path) if cell.run == "killed" else None
    proc, client = start_server(queue.state_dir, plugins)
    try:
        study_id = client.submit(spec.to_dict())["id"]
        if cell.run == "killed":
            # The queue file, not the study's ledger: a stopped process
            # may hold a lock on the ledger that blocks its readers.
            pid = wait_for_stop(
                tmp_path / "stopped",
                lambda: queue.open_ledger().study(study_id)["state"]
                not in TERMINAL_STUDY_STATES,
            )
            stop_server(proc)
            kill_group(pid)
            assert_killed_mid_run(queue.study_ledger_path(study_id))
            assert queue.open_ledger().study(study_id)["state"] == "running"
            proc, client = start_server(queue.state_dir, plugins)
        final = client.wait(study_id, timeout=TIMEOUT, poll=0.05)
        assert final["state"] == "done", final["error"]
    finally:
        stop_server(proc)
        if (tmp_path / "stopped").exists():
            kill_group(int((tmp_path / "stopped").read_text()))
    if warm_from is not None:
        assert len(EvalCache(shard)) == rows, "a warm served cell wrote rows"
    return queue.study_ledger_path(study_id)


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------

class Matrix:
    """Checks cells against reference cells it runs once per session."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self._references: dict = {}
        self._fills: dict = {}

    def reference(self, cell: Cell) -> dict:
        key = cell.reference
        if key not in self._references:
            self._references[key] = study_digests(run_study(cell_spec(key)))
        return self._references[key]

    def fill(self, cell: Cell) -> tuple[Path, int]:
        """A cache filled by a serial run of ``cell``'s spec, and its lookups."""
        key = cell.reference
        if key not in self._fills:
            path = self.root / f"{key.id}.sqlite"
            cache = EvalCache(path)
            filled = study_digests(run_study(cell_spec(key), eval_cache=cache))
            assert filled == self.reference(cell)
            cache.close()
            self._fills[key] = (path, cache.hits + cache.misses)
        return self._fills[key]

    def check(self, cell: Cell, tmp_path: Path) -> None:
        assert feasible(cell)
        warm_from = self.fill(cell)[0] if cell.cache == "warm" else None
        cache = None
        if cell.front == "served":
            ledger = serve(cell, tmp_path, warm_from)
            digests = ledger_digests(ledger)
        else:
            ledger = tmp_path / "cell.ledger"
            if cell.cache != "none":
                cache = tmp_path / "cell.sqlite"
                if warm_from is not None:
                    shutil.copyfile(warm_from, cache)
            if cell.run == "killed":
                kill_local_run(cell, tmp_path, ledger, cache)
            if cache is not None:
                cache = EvalCache(cache)
            digests = study_digests(
                run_study(cell_spec(cell), eval_cache=cache, ledger=ledger)
            )
        assert digests == self.reference(cell), f"{cell.id} differs from its reference"
        if cache is not None and cell.run == "uninterrupted":
            # Forked workers hand their lookups back: every backend
            # counts what the serial run counts, and a warm run hits on
            # all of them.
            assert cache.hits + cache.misses == self.fill(cell)[1]
            if cell.cache == "warm":
                assert cache.misses == 0
        assert rerun_evaluations(cell, ledger) == 0


def rerun_evaluations(cell: Cell, ledger: Path) -> int:
    """``evaluate_batch`` calls, in any process, of a re-run of a finished ledger."""
    log = ledger.with_name("rerun.log")
    evaluate_batch = CodesignEvaluator.evaluate_batch

    def logged(self, pairs):
        with open(log, "a") as out:  # fork-safe append
            out.write("batch\n")
        return evaluate_batch(self, pairs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CodesignEvaluator, "evaluate_batch", logged)
        rerun = run_study(cell_spec(cell), ledger=ledger)
    assert study_digests(rerun) == ledger_digests(ledger)
    return len(log.read_text().splitlines()) if log.exists() else 0


@pytest.fixture(scope="session")
def matrix(tmp_path_factory) -> Matrix:
    return Matrix(tmp_path_factory.mktemp("equivalence"))


@pytest.mark.parametrize("cell", FULL_PRODUCT, ids=lambda cell: cell.id)
def test_cell_equals_its_reference(matrix, cell, tmp_path):
    matrix.check(cell, tmp_path)
