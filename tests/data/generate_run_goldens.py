"""Regenerate the ``repro run`` goldens.

``run_goldens.json`` pins, for eight ``repro run fig5|fig6|fig5+6``
flag sets, two md5 digests:

* ``report``: the markdown report the command prints to stdout;
* ``run_config``: ``json.dumps(RunLedger(F).run_config(),
  sort_keys=True)`` of the ``--ledger F`` file the run began, i.e. the
  grid configuration and study spec a later ``repro resume`` must
  present again.

Each case calls ``repro.cli.main(["run", *flags, "--ledger", F])`` with
the CLI's ``load_bundle`` returning the micro-4 bundle and its
``_resolve_scale`` returning a 12-step x 2-repeat scale, so the whole
command runs in seconds.  The cases cover seeds, batch sizes,
``--scenario`` and ``--scenario-file`` (whose entries are inlined into
the pinned spec), ``--hardware``, ``--surrogate --exact-fraction``,
``--workers`` with ``--checkpoint-every``, and ``--backend cluster``.

The goldens were generated before ``repro run`` built its study spec
in the CLI; ``tests/test_cli.py::TestRunGoldens`` replays every case
through :func:`run_case` and compares.  Do not regenerate casually:
new goldens only prove self-consistency of the current code, and a
changed ``run_config`` digest means ledgers begun by older code no
longer resume.

Run:  PYTHONPATH=src python tests/data/generate_run_goldens.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from repro.experiments.common import Scale, load_bundle
from repro.parallel import RunLedger

GOLDENS = Path(__file__).resolve().parent / "run_goldens.json"

SCALE = Scale("golden", search_steps=12, num_repeats=2, fig7_target_scale=0.1)

#: Written next to the ledger and passed as ``--scenario-file``; the
#: first entry omits ``bounds`` so the bundle's bounds fill them in.
SCENARIO_FILE = "scenarios.json"
SCENARIO_SPECS = [
    {
        "name": "latency-100",
        "weights": [0.1, 0.0, 0.9],
        "constraints": {"max_latency_ms": 100.0},
    },
    {
        "name": "area-150",
        "weights": [0.3, 0.3, 0.4],
        "constraints": {"max_area_mm2": 150.0},
        "bounds": {"area_mm2": [40.0, 200.0], "accuracy": [80.0, 95.0]},
        "punishment_scale": 0.5,
    },
]

#: Case name -> ``repro run`` arguments (before ``--ledger``).
CASES = {
    "fig5": ["fig5"],
    "fig6-seed3-b4": ["fig6", "--seed", "3", "--batch-size", "4"],
    "fig5+6-scenarios-b2": [
        "fig5+6",
        "--scenario", "2-constraints",
        "--scenario", "perf-area>=16",
        "--batch-size", "2",
    ],
    "fig5-scenario-file-seed1": [
        "fig5", "--scenario-file", SCENARIO_FILE, "--seed", "1",
    ],
    "fig5-embedded-lite-b4": [
        "fig5",
        "--hardware", "embedded-lite",
        "--scenario", "unconstrained",
        "--batch-size", "4",
    ],
    "fig5-surrogate-b4": [
        "fig5",
        "--surrogate", "--exact-fraction", "0.5",
        "--scenario", "unconstrained",
        "--batch-size", "4",
    ],
    "fig5-workers2-b4": [
        "fig5",
        "--workers", "2",
        "--scenario", "1-constraint",
        "--batch-size", "4",
        "--checkpoint-every", "1",
    ],
    "fig5-cluster-b4": [
        "fig5",
        "--backend", "cluster",
        "--workers", "2",
        "--scenario", "unconstrained",
        "--batch-size", "4",
    ],
}


def _md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


def run_case(name: str, bundle, workdir: Path) -> dict[str, str]:
    """The digests of one golden case, computed by the current code.

    ``workdir`` must be an empty directory; the case writes its ledger
    (and scenario file) there.
    """
    from repro.cli import main

    workdir = Path(workdir)
    (workdir / SCENARIO_FILE).write_text(json.dumps(SCENARIO_SPECS))
    flags = [
        str(workdir / flag) if flag == SCENARIO_FILE else flag
        for flag in CASES[name]
    ]
    ledger = workdir / "run.ledger"
    stdout = io.StringIO()
    with mock.patch("repro.cli.load_bundle", lambda *args, **kwargs: bundle), \
            mock.patch("repro.cli._resolve_scale", lambda name: SCALE), \
            contextlib.redirect_stdout(stdout):
        assert main(["run", *flags, "--ledger", str(ledger)]) == 0
    run_config = json.dumps(RunLedger(ledger).run_config(), sort_keys=True)
    return {"report": _md5(stdout.getvalue()), "run_config": _md5(run_config)}


def main() -> None:
    bundle = load_bundle(max_vertices=4)
    goldens = {}
    for name in CASES:
        with tempfile.TemporaryDirectory() as workdir:
            goldens[name] = run_case(name, bundle, Path(workdir))
        print(name, goldens[name])
    lines = [f"{json.dumps(name)}: {json.dumps(goldens[name])}" for name in sorted(goldens)]
    GOLDENS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(goldens)} cases")


if __name__ == "__main__":
    main()
