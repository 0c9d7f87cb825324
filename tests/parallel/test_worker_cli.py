"""Tests for the external cluster worker entry point (``repro worker``)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.study import StudySpec, run_study
from repro.parallel import RunLedger
from repro.search.runner import RepeatJob, run_grid

SRC = Path(__file__).resolve().parents[2] / "src"


def tiny_spec(**execution) -> StudySpec:
    execution = {"num_steps": 20, "num_repeats": 2, **execution}
    return StudySpec(
        name="tiny-worker",
        strategies=({"name": "random"},),
        scenarios=("unconstrained",),
        evaluator={"source": "surrogate"},
        execution=execution,
    )


def worker_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.parallel.worker", *args]


def run_worker_process(*args: str, timeout: float = 180.0):
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC}:{env.get('PYTHONPATH', '')}"
    return subprocess.run(
        worker_cmd(*args),
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestWorkerEntryPoint:
    def test_requires_ledger_argument(self):
        proc = run_worker_process()
        assert proc.returncode == 2
        assert "--ledger" in proc.stderr

    def test_missing_pinned_config_fails_fast(self, tmp_path):
        ledger_path = tmp_path / "empty.ledger"
        RunLedger(ledger_path).close()
        proc = run_worker_process("--ledger", str(ledger_path))
        assert proc.returncode != 0
        assert "no pinned run configuration" in proc.stderr

    def test_non_spec_ledger_rejected(self, tmp_path, micro4_bundle):
        # A ledger from a raw run_grid (no pinned StudySpec) cannot
        # serve external workers: they rebuild jobs from the spec.
        from repro.core.evaluator import build_evaluator
        from repro.core.scenarios import unconstrained
        from repro.core.search_space import JointSearchSpace
        from repro.search.random_search import RandomSearch

        ledger_path = tmp_path / "raw.ledger"
        space = JointSearchSpace(cell_encoding=micro4_bundle.cell_encoding)
        scenario = unconstrained(micro4_bundle.bounds)
        job = RepeatJob(
            "unconstrained/random",
            strategy_factory=lambda seed: RandomSearch(space, seed=seed),
            evaluator_factory=lambda: build_evaluator(
                "database", scenario, bundle=micro4_bundle, platform=micro4_bundle.platform
            ),
        )
        run_grid([job], num_steps=5, num_repeats=1, ledger=ledger_path)
        proc = run_worker_process("--ledger", str(ledger_path))
        assert proc.returncode != 0
        assert "study_spec" in proc.stderr

    def test_joins_finished_study_and_exits_clean(self, tmp_path):
        # The full rebuild path — pinned spec -> build_study -> label
        # check -> claim loop — against a study with nothing left to
        # do: the worker must converge immediately and exit 0.
        ledger_path = tmp_path / "study.ledger"
        run_study(tiny_spec(), ledger=ledger_path)
        proc = run_worker_process("--ledger", str(ledger_path))
        assert proc.returncode == 0, proc.stderr
        assert "recorded 0 task(s)" in proc.stdout

    def test_elastic_join_during_cluster_run(self, tmp_path):
        # A worker started *before* the coordinating run (--wait) joins
        # its lease pool; however the tasks are split, the study result
        # must equal the serial golden.
        ledger_path = tmp_path / "elastic.ledger"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{SRC}:{env.get('PYTHONPATH', '')}"
        worker = subprocess.Popen(
            worker_cmd("--ledger", str(ledger_path), "--wait", "120"),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            clustered = run_study(
                tiny_spec(backend="cluster", workers=1),
                ledger=ledger_path,
            )
            out, _ = worker.communicate(timeout=120)
            assert worker.returncode == 0, out
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.communicate()

        serial = run_study(tiny_spec())
        assert set(clustered.outcomes) == set(serial.outcomes)
        for scenario, by_strategy in serial.outcomes.items():
            for strategy, outcome in by_strategy.items():
                other = clustered.outcomes[scenario][strategy]
                for ra, rb in zip(outcome.results, other.results):
                    assert np.array_equal(
                        ra.reward_trace(), rb.reward_trace(), equal_nan=True
                    )

    def test_repro_worker_subcommand_delegates(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{SRC}:{env.get('PYTHONPATH', '')}"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "worker", "--help"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: repro worker")
