"""End-to-end tests of the study server over real HTTP.

The server runs as a real subprocess (``python -m repro serve``) on an
ephemeral port, exactly as deployed.  The durability test is the
headline: SIGKILL the runner *and* the server mid-study, prove the
queue still says ``running``, boot a fresh server on the same state
directory, and assert the resumed study's outcomes are bit-identical
to an uninterrupted in-process ``run_study`` of the same spec.

Studies are slowed to a killable pace through the server's
``--import`` plugin hook: a generated module registers a
``slow-surrogate`` accuracy source whose ``accuracy_fn`` sleeps per
evaluation — values (and therefore outcomes) are untouched.
"""

from __future__ import annotations

import importlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.study import StudySpec, outcome_summary, run_study
from repro.experiments.common import Scale
from repro.experiments.presets import resolve_spec
from repro.parallel.ledger import RunLedger
from repro.server import ServerError, StudyClient

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: The plugin the server imports into every runner (and the test
#: imports in-process for the comparison run).
SLOW_SOURCE_PLUGIN = '''\
"""Test plugin: the surrogate accuracy source, slowed by a fixed delay."""

import time

from repro.core.evaluator import get_accuracy_source, register_accuracy_source


def _build_slow(reward_config, params, bundle=None, store=None, platform=None):
    params = dict(params or {})
    delay_s = float(params.pop("delay_s", 0.05))
    evaluator = get_accuracy_source("surrogate").build(
        reward_config, params, bundle=bundle, store=store, platform=platform
    )
    inner = evaluator.accuracy_fn

    def slow_accuracy(spec):
        time.sleep(delay_s)
        return inner(spec)

    evaluator.accuracy_fn = slow_accuracy
    return evaluator


register_accuracy_source("slow-surrogate", _build_slow, overwrite=True)
'''


@pytest.fixture
def plugins_dir(tmp_path):
    plugins = tmp_path / "plugins"
    plugins.mkdir()
    (plugins / "slow_source.py").write_text(SLOW_SOURCE_PLUGIN)
    return plugins


def slow_spec(delay_s: float = 0.3, num_steps: int = 8) -> dict:
    """A single-job spec that takes ~delay_s * num_steps to run."""
    return {
        "name": "slow",
        "strategies": [{"name": "random", "params": {}}],
        "scenarios": ["unconstrained"],
        "evaluator": {"source": "slow-surrogate", "params": {"delay_s": delay_s}},
        "hardware": {"name": "dac2020", "params": {}},
        "execution": {
            "num_steps": num_steps,
            "num_repeats": 1,
            "checkpoint_every": 1,
        },
    }


def start_server(state_dir, plugins_dir=None, stale_after: float = 2.0):
    """Boot ``repro serve`` on an ephemeral port; returns (proc, url)."""
    env = dict(os.environ)
    paths = [SRC] + ([str(plugins_dir)] if plugins_dir is not None else [])
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--state-dir", str(state_dir),
        "--port", "0",
        "--scale", "smoke",
        "--stale-after", str(stale_after),
    ]
    if plugins_dir is not None:
        cmd += ["--import", "slow_source"]
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        start_new_session=True,
        text=True,
    )
    banner = proc.stdout.readline()
    assert banner.startswith("serving on "), f"server failed to boot: {banner!r}"
    return proc, banner.split()[2]


def kill_server(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def register_slow_source_locally(plugins_dir) -> None:
    """Import the plugin in-process (for the comparison run_study)."""
    sys.path.insert(0, str(plugins_dir))
    try:
        importlib.import_module("slow_source")
    finally:
        sys.path.remove(str(plugins_dir))


class TestHTTPAPI:
    def test_submit_run_and_inspect(self, tmp_path):
        proc, url = start_server(tmp_path / "state")
        try:
            client = StudyClient(url)
            assert client.health() == {"ok": True}
            spec = resolve_spec("smoke").with_overrides(
                {"execution.num_steps": 5}
            )
            submitted = client.submit(spec.to_dict())
            study_id = submitted["id"]
            assert submitted["state"] == "queued"
            doc = client.wait(study_id, timeout=120)
            assert doc["state"] == "done"
            progress = doc["progress"]
            assert progress["done_repeats"] == progress["total_repeats"] == 2
            for job in progress["jobs"].values():
                assert job["done"] == job["total"] == 1
                assert len(job["best_rewards"]) == 1
            # The served outcome summary equals a local run of the
            # same spec, float for float — serving is a transport,
            # never a result change.
            local = run_study(spec, scale=Scale.named("smoke"))
            assert doc["result"]["outcomes"] == outcome_summary(local)
            # /events replays status documents and ends terminal.
            events = list(client.events(study_id))
            assert events and events[-1]["state"] == "done"
            # Listing shows the one study, brief form.
            listed = client.studies()
            assert [row["id"] for row in listed] == [study_id]
            assert listed[0]["name"] == "smoke"
        finally:
            kill_server(proc)

    def test_error_statuses(self, tmp_path):
        proc, url = start_server(tmp_path / "state")
        try:
            client = StudyClient(url)
            # 400: the StudySpec validation message names the field.
            with pytest.raises(ServerError) as excinfo:
                client.submit({"name": "x", "bogus": 1})
            assert excinfo.value.status == 400
            assert "bogus" in str(excinfo.value)
            # 400: a controller value JSON can carry but no run can use.
            nan_spec = {
                **resolve_spec("smoke").to_dict(),
                "strategies": [
                    {"name": "combined",
                     "params": {"reinforce_config": {"learning_rate": float("nan")}}}
                ],
            }
            with pytest.raises(ServerError) as excinfo:
                client.submit(nan_spec)
            assert excinfo.value.status == 400
            assert "learning_rate must be finite" in str(excinfo.value)
            # 400: an accuracy-source value its constructor refuses.
            bad_source = {
                **resolve_spec("smoke").to_dict(),
                "evaluator": {"source": "surrogate", "params": {"noise_std": -1.0}},
            }
            with pytest.raises(ServerError) as excinfo:
                client.submit(bad_source)
            assert excinfo.value.status == 400
            assert "noise_std" in str(excinfo.value)
            # 400: non-object body.
            with pytest.raises(ServerError) as excinfo:
                client._request("POST", "/studies", payload=[1, 2])
            assert excinfo.value.status == 400
            # 404: unknown study id, every route.
            for call in (
                lambda: client.status("st-missing"),
                lambda: client.cancel("st-missing"),
                lambda: list(client.events("st-missing")),
            ):
                with pytest.raises(ServerError) as excinfo:
                    call()
                assert excinfo.value.status == 404
        finally:
            kill_server(proc)

    def test_cancel_running_study(self, tmp_path, plugins_dir):
        proc, url = start_server(tmp_path / "state", plugins_dir)
        try:
            client = StudyClient(url)
            study_id = client.submit(slow_spec(delay_s=0.3, num_steps=60))["id"]
            deadline = time.monotonic() + 60
            while client.status(study_id)["state"] != "running":
                assert time.monotonic() < deadline, "study never started"
                time.sleep(0.05)
            cancelled = client.cancel(study_id)
            assert cancelled == {
                "id": study_id, "state": "cancelled", "was": "running",
            }
            final = client.wait(study_id, timeout=30)
            assert final["state"] == "cancelled"
            # 409: cancellation never overwrites a terminal state.
            with pytest.raises(ServerError) as excinfo:
                client.cancel(study_id)
            assert excinfo.value.status == 409
        finally:
            kill_server(proc)


class TestKillDurability:
    def test_sigkill_mid_study_resumes_bit_identical(self, tmp_path, plugins_dir):
        """The serving durability contract, end to end.

        SIGKILL both the runner and the server once the study has
        checkpointed real progress; the queue must still say
        ``running`` (nobody recorded a terminal state), and a fresh
        server on the same state directory must reclaim the stale
        lease and resume from the per-study ledger — finishing with
        outcomes bit-identical to an uninterrupted run of the same
        spec.
        """
        spec_dict = slow_spec(delay_s=0.4, num_steps=8)
        state = tmp_path / "state"
        proc, url = start_server(state, plugins_dir, stale_after=2.0)
        client = StudyClient(url)
        study_id = client.submit(spec_dict)["id"]

        # Wait for mid-flight: >= 2 checkpointed steps, well short of 8.
        deadline = time.monotonic() + 60
        runner_pid = None
        while time.monotonic() < deadline:
            doc = client.status(study_id)
            steps = sum(
                job["checkpointed_steps"]
                for job in doc["progress"]["jobs"].values()
            )
            if doc["state"] == "running" and steps >= 2:
                runner_pid = doc["pid"]
                break
            time.sleep(0.05)
        assert runner_pid is not None, "study never reached mid-flight"
        assert steps < 8, "study finished before it could be killed"
        assert runner_pid != proc.pid  # the lease points at the runner

        # Kill the server first (it must not get a chance to mark the
        # study failed when the runner dies), then the runner's group.
        kill_server(proc)
        try:
            os.killpg(runner_pid, signal.SIGKILL)
        except ProcessLookupError:
            pytest.fail("runner exited early; the kill was not mid-study")

        # Nothing recorded a terminal state: the row still says
        # running, with a heartbeat that is now going stale.
        row = RunLedger(state / "queue.sqlite").study(study_id)
        assert row["state"] == "running"

        # A fresh server on the same state dir reclaims and resumes.
        proc2, url2 = start_server(state, plugins_dir, stale_after=2.0)
        try:
            final = StudyClient(url2).wait(study_id, timeout=120)
            assert final["state"] == "done"

            register_slow_source_locally(plugins_dir)
            local = run_study(
                StudySpec.from_dict(spec_dict), scale=Scale.named("smoke")
            )
            # Bit-identical: best_rewards are full-precision floats and
            # JSON round-trips IEEE-754 doubles exactly.
            assert final["result"]["outcomes"] == outcome_summary(local)
        finally:
            kill_server(proc2)
