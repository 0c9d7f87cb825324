"""Command-line interface: regenerate any paper table or figure.

Usage::

    python -m repro list
    python -m repro run table1
    python -m repro run fig4 --out results/fig4.md
    python -m repro run fig7 --scale default --seed 1
    python -m repro run fig5+6 --scale paper --workers 8 --cache-dir .cache/repro
    python -m repro run fig5 --scenario "perf-area>=16" --batch-size 16
    python -m repro run fig5+6 --scenario-file my_scenarios.json
    python -m repro run fig5+6 --scale paper --ledger results/fig56.ledger
    python -m repro resume fig5+6 --scale paper --ledger results/fig56.ledger
    python -m repro run fig5+6 --backend cluster --workers 4 --ledger state/f.ledger
    python -m repro worker --ledger state/f.ledger --cache state/evals.sqlite
    python -m repro run all --scale smoke
    python -m repro study list
    python -m repro study show fig5
    python -m repro study run fig5 --set execution.batch_size=16
    python -m repro study run examples/study_fig5.json --set execution.num_steps=5
    python -m repro hw list
    python -m repro hw show dac2020-scaled
    python -m repro workload list
    python -m repro workload show transformer
    python -m repro study run bert-u50 --exact-fraction 0.1
    python -m repro run fig5 --hardware embedded-lite
    python -m repro study run smoke --hardware dac2020-scaled --set 'hardware.params.clock_mhz=300'
    python -m repro study run hw-sweep
    python -m repro serve --state-dir results/server --port 8321
    python -m repro submit smoke --set execution.num_steps=5 --watch
    python -m repro status st-1f2e3d4c5b6a
    python -m repro watch st-1f2e3d4c5b6a --out results/served.md
    python -m repro cancel st-1f2e3d4c5b6a

``repro study`` drives the declarative experiment API
(:mod:`repro.core.study`): ``show`` prints a preset (or spec file) as
JSON, ``run`` materializes it through the strategy / accuracy-source /
hardware-platform registries and runs the grid.  ``repro hw`` inspects
the hardware-platform registry (:mod:`repro.hw`); ``repro workload``
inspects the workload registry (:mod:`repro.workloads`) and
``--workload NAME`` swaps a spec's model family the same way
``--hardware`` swaps its platform.  ``--hardware NAME``
swaps the platform the search-study experiments (and fig7) evaluate
on — evaluations from different platforms never share cache rows.  ``--set path=value`` overrides single
spec fields (dotted paths into the JSON structure, values parsed as
JSON with a plain-string fallback); a spec whose ``execution.ledger``
names a file is crash-safe, and resuming it with *any* edited spec is
refused because the ledger pins ``spec.to_dict()``.

``repro serve`` runs the study server (:mod:`repro.server`): an
HTTP/JSON API over a ledger-backed study queue, with every study
executed crash-safely against its own run ledger.  ``repro
submit|status|watch|cancel`` are its clients — ``submit`` resolves
specs exactly like ``study run`` (same ``--set``/``--hardware``)
and ``watch`` prints the same report, so a served
study and a local run are directly comparable.  The server address
comes from ``--server``, ``REPRO_SERVER``, or the default
``http://127.0.0.1:8321``.

Each experiment prints the same rows the paper reports (markdown) and
can optionally write them to a file.  ``--workers N`` (N > 1) fans the
repeat experiments out across a process pool; ``--cache-dir`` persists
every evaluation to ``<dir>/eval_cache.sqlite`` so re-runs warm-start.
Neither flag changes search results — determinism comes from ``--seed``
alone.  ``--backend NAME`` picks the execution backend explicitly from
the registry (``serial`` / ``process`` / ``cluster`` built in); the
``cluster`` backend additionally lets external ``repro worker``
processes — on this machine or any machine sharing the state files —
join the run elastically, with identical results at any worker count.  ``--scenario`` / ``--scenario-file`` run the search study under
registry or JSON-declared scenarios instead of the paper's three (see
``docs/reproducing.md``); ``--batch-size B`` evaluates B proposals per
ask/tell step (B=1 reproduces the per-point loop bit for bit, larger B
is several times faster under per-strategy batch semantics).  fig7's
"simulated GPU-hours" line is the search's training cost, read off its
archive, so a warm ``--cache-dir`` re-run prints the same report as a
cold one.

``--ledger FILE`` makes the search-study experiments crash-safe:
finished (scenario, strategy, repeat) searches are persisted to FILE
as they complete and in-flight searches checkpoint every
``--checkpoint-every`` batches, so after a crash ``repro resume`` (the
same command with ``run`` replaced) skips completed repeats and
restarts interrupted ones from their checkpoints — producing exactly
the rows an uninterrupted run would have printed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.core.scenarios import ScenarioError, resolve_scenarios, scenario_to_dict
from repro.core.study import (
    StudyError,
    StudySpec,
    outcome_summary,
    parse_assignments,
    replace_execution,
    run_study,
)
from repro.experiments.ablations import ablation_markdown, run_all_ablations
from repro.experiments.common import Scale, eval_cache_path, load_bundle
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import fig7_spec, run_fig7
from repro.experiments.presets import get_preset, list_presets, resolve_spec
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.validation import run_validation
from repro.hw import (
    HardwarePlatformError,
    build_platform,
    get_platform,
    list_platforms,
)
from repro.parallel import EvalCache, LedgerError, RunLedger, list_backends

__all__ = ["main", "RunContext", "EXPERIMENTS"]


@dataclass
class RunContext:
    """Everything an experiment runner needs from the command line."""

    scale: Scale
    seed: int
    spec: StudySpec
    eval_cache: EvalCache | None = None
    ledger: RunLedger | None = None
    hardware: str | None = None
    _study: object = None

    def study(self):
        """The Fig. 5/6 search study, computed once per invocation.

        ``run all`` regenerates fig5, fig6, and fig5+6 from one grid
        run instead of three identical ones.
        """
        if self._study is None:
            self._study = run_study(
                self.spec,
                bundle=load_bundle(),
                scale=self.scale,
                eval_cache=self.eval_cache,
                ledger=self.ledger,
            )
        return self._study


def _run_table1(ctx: RunContext) -> str:
    return run_table1().to_markdown()


def _run_validation(ctx: RunContext) -> str:
    return run_validation(seed=ctx.seed or 7).to_markdown()


def _run_fig4(ctx: RunContext) -> str:
    return run_fig4(load_bundle()).to_markdown()


def _run_fig5(ctx: RunContext) -> str:
    return run_fig5(study=ctx.study()).to_markdown()


def _run_fig6(ctx: RunContext) -> str:
    return run_fig6(study=ctx.study()).to_markdown()


def _run_fig56(ctx: RunContext) -> str:
    study = ctx.study()
    return (
        run_fig5(study=study).to_markdown()
        + "\n\n"
        + run_fig6(study=study).to_markdown()
    )


def _run_fig7(ctx: RunContext) -> str:
    spec = fig7_spec(ctx.scale, ctx.seed, hardware=ctx.hardware)
    fig7 = run_fig7(run_study(spec, scale=ctx.scale, eval_cache=ctx.eval_cache))
    return "\n\n".join(
        [fig7.to_markdown(), run_table2(fig7).to_markdown(), run_table3(fig7).to_markdown()]
    )


def _run_ablations(ctx: RunContext) -> str:
    return ablation_markdown(run_all_ablations(load_bundle(), ctx.scale))


#: Experiment name -> runner returning a markdown report.
EXPERIMENTS: dict[str, Callable[[RunContext], str]] = {
    "table1": _run_table1,
    "validation": _run_validation,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig5+6": _run_fig56,
    "fig7": _run_fig7,
    "ablations": _run_ablations,
}

#: Experiments driven by the Fig. 5/6 search study — the only ones
#: --scenario / --scenario-file / --batch-size apply to.
STUDY_EXPERIMENTS = ("fig5", "fig6", "fig5+6")

#: Experiments that evaluate on a hardware platform — the ones
#: --hardware applies to (the search study plus the fig7 flow).
HARDWARE_EXPERIMENTS = STUDY_EXPERIMENTS + ("fig7",)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Codesign-NAS reproduction: regenerate paper tables/figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    _add_run_arguments(run)
    resume = sub.add_parser(
        "resume",
        help="resume an interrupted --ledger run (same arguments as 'run'; "
        "completed repeats are loaded, interrupted ones restart from "
        "their last checkpoint)",
    )
    _add_run_arguments(resume)
    hw = sub.add_parser(
        "hw",
        help="hardware-platform registry: list registered platforms or "
        "show one platform's parameters and config space (see repro.hw)",
    )
    hw_sub = hw.add_subparsers(dest="hw_command", required=True)
    hw_sub.add_parser("list", help="list registered hardware platforms")
    hw_show = hw_sub.add_parser(
        "show", help="print one platform's description as JSON"
    )
    hw_show.add_argument(
        "platform",
        metavar="PLATFORM",
        help="a registered platform name (see 'repro hw list')",
    )
    hw_show.add_argument(
        "--set",
        action="append",
        default=[],
        dest="params",
        metavar="NAME=VALUE",
        help="build the platform with this parameter (repeatable; values "
        "parse as JSON, falling back to strings) — parametric "
        "platforms report their *effective* config-space size after "
        "budget caps, so e.g. --set max_pixel_par=16 shrinks it",
    )
    hw_validate = hw_sub.add_parser(
        "validate-surrogate",
        help="score a platform's fitted cost surrogate against the exact "
        "models on a fresh held-out sample; exits non-zero when the "
        "error budget is exceeded (see repro.hw.surrogate)",
    )
    hw_validate.add_argument(
        "platform",
        metavar="PLATFORM",
        help="a registered platform name (see 'repro hw list')",
    )
    hw_validate.add_argument(
        "--samples",
        type=int,
        default=256,
        metavar="N",
        help="held-out configurations to score (default: 256)",
    )
    hw_validate.add_argument(
        "--seed",
        type=int,
        default=1,
        metavar="SEED",
        help="RNG seed of the held-out sample (default: 1; disjoint "
        "stream from the fit regardless of value)",
    )
    workload = sub.add_parser(
        "workload",
        help="workload registry: list registered workloads or show one "
        "workload's encoding, accuracy sources, and compatible "
        "platforms (see repro.workloads)",
    )
    workload_sub = workload.add_subparsers(dest="workload_command", required=True)
    workload_sub.add_parser("list", help="list registered workloads")
    workload_show = workload_sub.add_parser(
        "show", help="print one workload's description as JSON"
    )
    workload_show.add_argument(
        "workload",
        metavar="WORKLOAD",
        help="a registered workload name (see 'repro workload list')",
    )
    study = sub.add_parser(
        "study",
        help="declarative experiments: run/show StudySpec presets or "
        "JSON spec files (see repro.core.study)",
    )
    study_sub = study.add_subparsers(dest="study_command", required=True)
    study_sub.add_parser("list", help="list shipped study presets")
    for command, description in (
        ("show", "print the resolved spec as JSON (after --set overrides)"),
        ("run", "materialize the spec through the registries and run it"),
    ):
        sp = study_sub.add_parser(command, help=description)
        _add_spec_arguments(sp)
        if command == "run":
            sp.add_argument(
                "--scale",
                choices=("smoke", "default", "paper"),
                default=None,
                help="fills num_steps/num_repeats the spec leaves null "
                "(defaults to REPRO_SCALE or 'smoke')",
            )
            sp.add_argument(
                "--out", type=Path, default=None, help="write report to file"
            )
    _add_server_parsers(sub)
    # Listed for --help only: `repro worker ...` is intercepted in
    # main() and delegated to repro.parallel.worker's own parser.
    sub.add_parser(
        "worker",
        add_help=False,
        help="join a cluster-backend run as an extra worker: claim "
        "ledger-leased tasks until the run completes (see "
        "'repro worker --help' and python -m repro.parallel.worker)",
    )
    return parser


def _add_spec_arguments(sp: argparse.ArgumentParser) -> None:
    """The spec-selecting arguments 'study show/run' and 'submit' share."""
    sp.add_argument(
        "spec",
        metavar="PRESET|SPEC.json",
        help="a shipped preset name (see 'repro study list') or a "
        "JSON spec file path",
    )
    sp.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="PATH=VALUE",
        help="override one spec field by dotted path, e.g. "
        "--set execution.batch_size=16 (repeatable; values parse "
        "as JSON, falling back to strings)",
    )
    sp.add_argument(
        "--hardware",
        default=None,
        metavar="PLATFORM",
        help="replace the spec's hardware field with this registered "
        "platform (shorthand for overriding 'hardware'; applied "
        "before --set, so --set hardware.params.X=... can refine it)",
    )
    sp.add_argument(
        "--workload",
        default=None,
        metavar="WORKLOAD",
        help="replace the spec's workload field with this registered "
        "workload (shorthand for --set workload=NAME, applied before "
        "--set; the spec's accuracy source and platforms must be "
        "compatible — see 'repro workload list')",
    )
    sp.add_argument(
        "--surrogate",
        action="store_true",
        help="shorthand for --set execution.surrogate=true: two-tier "
        "search — strategies propose inflated batches, a learned cost "
        "surrogate ranks them, and only the top --exact-fraction "
        "slice is evaluated exactly (exact results are all that is "
        "told/cached/ledgered; see repro.hw.surrogate)",
    )
    sp.add_argument(
        "--exact-fraction",
        type=float,
        default=None,
        metavar="F",
        help="in two-tier mode (--surrogate or a spec with "
        "execution.surrogate): fraction (0, 1] of each surrogate-ranked "
        "batch that earns an exact evaluation (default: the spec's "
        "execution.exact_fraction, 0.25)",
    )


def _add_server_arg(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help="study server base URL (defaults to REPRO_SERVER or "
        "http://127.0.0.1:8321)",
    )


def _add_server_parsers(sub) -> None:
    """The serving side: 'serve' plus its 'submit|status|watch|cancel' clients."""
    serve = sub.add_parser(
        "serve",
        help="run the study server: an HTTP/JSON API over a ledger-backed "
        "study queue (see repro.server; POST specs with 'repro submit')",
    )
    serve.add_argument(
        "--state-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="server state root: queue ledger, per-study run ledgers, "
        "sharded eval caches (default <cache-dir>/server)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=8321,
        help="bind port (0 picks an ephemeral one and prints it)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="concurrent studies (each runs in its own runner subprocess)",
    )
    serve.add_argument(
        "--scale",
        choices=("smoke", "default", "paper"),
        default=None,
        help="sizing preset for every served study (default REPRO_SCALE "
        "or 'smoke')",
    )
    serve.add_argument(
        "--import",
        action="append",
        default=[],
        dest="imports",
        metavar="MODULE",
        help="import MODULE inside every study runner before the spec is "
        "materialized (registers plugin accuracy sources, platforms, "
        "strategies; repeatable)",
    )
    serve.add_argument(
        "--stale-after",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="re-lease a running study whose heartbeat is older than this "
        "(how fast a restarted server resumes studies a killed one "
        "left behind)",
    )
    submit = sub.add_parser(
        "submit",
        help="submit a study spec to a running server; prints the study id",
    )
    _add_spec_arguments(submit)
    _add_server_arg(submit)
    submit.add_argument(
        "--watch",
        action="store_true",
        help="follow the submitted study to completion (same as "
        "'repro watch <id>')",
    )
    submit.add_argument(
        "--out",
        type=Path,
        default=None,
        help="with --watch, write the final report to a file",
    )
    status = sub.add_parser(
        "status",
        help="list the server's studies, or show one study's full status",
    )
    status.add_argument(
        "study",
        nargs="?",
        default=None,
        metavar="STUDY_ID",
        help="a study id (omit to list every study)",
    )
    _add_server_arg(status)
    watch = sub.add_parser(
        "watch",
        help="stream one study's progress until it finishes; prints the "
        "same report 'repro study run' would",
    )
    watch.add_argument("study", metavar="STUDY_ID")
    _add_server_arg(watch)
    watch.add_argument(
        "--out", type=Path, default=None, help="write the final report to a file"
    )
    cancel = sub.add_parser("cancel", help="cancel a queued or running study")
    cancel.add_argument("study", metavar="STUDY_ID")
    _add_server_arg(cancel)


def _add_run_arguments(run: argparse.ArgumentParser) -> None:
    run.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    run.add_argument(
        "--scale",
        choices=("smoke", "default", "paper"),
        default=None,
        help="experiment sizing (defaults to REPRO_SCALE or 'smoke')",
    )
    run.add_argument("--seed", type=int, default=0, help="master seed")
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker count for repeat experiments (N>1 enables the "
        "process backend unless --backend says otherwise; results are "
        "identical at any N)",
    )
    run.add_argument(
        "--backend",
        choices=list_backends(),
        default=None,
        metavar="NAME",
        help="execution backend for the repeat experiments "
        f"({', '.join(list_backends())}; default: derived from "
        "--workers).  'cluster' coordinates through the --ledger file "
        "and accepts extra 'repro worker' processes joining mid-run; "
        "every backend produces identical results",
    )
    run.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="persist evaluations to DIR/eval_cache.sqlite so re-runs "
        "warm-start (never changes search results or reports)",
    )
    run.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="run the search study under this registry scenario instead "
        "of the paper's three (repeatable; see "
        "repro.core.scenarios.list_scenarios, plus the parametric "
        "'perf-area>=N' family)",
    )
    run.add_argument(
        "--scenario-file",
        type=Path,
        default=None,
        metavar="SPEC.json",
        help="add every scenario declared in a JSON spec file to the "
        "search study (one spec object or a list; see "
        "docs/reproducing.md for the format)",
    )
    run.add_argument(
        "--hardware",
        default=None,
        metavar="PLATFORM",
        help="evaluate on this registered hardware platform instead of the "
        "reference dac2020 (see 'repro hw list'; applies to "
        "fig5/fig6/fig5+6/fig7 — platform evaluations never share "
        "cache rows with other platforms)",
    )
    run.add_argument(
        "--surrogate",
        action="store_true",
        help="two-tier search: strategies propose inflated batches, a "
        "learned cost surrogate ranks them, and only the top "
        "--exact-fraction slice is evaluated exactly (exact results "
        "are all that is told/cached/ledgered; applies to the "
        "search-study experiments; see repro.hw.surrogate)",
    )
    run.add_argument(
        "--exact-fraction",
        type=float,
        default=None,
        metavar="F",
        help="with --surrogate: fraction (0, 1] of each surrogate-ranked "
        "batch that earns an exact evaluation (default: 0.25)",
    )
    run.add_argument(
        "--batch-size",
        type=int,
        default=1,
        metavar="B",
        help="ask/tell batch size: strategies propose B points per step "
        "and evaluate them in one batch (1 = bit-identical to the "
        "historic per-point loop; >1 uses rollout/generation batches)",
    )
    run.add_argument(
        "--ledger",
        type=Path,
        default=None,
        metavar="FILE",
        help="crash-safe run ledger (sqlite): persist finished search-study "
        "repeats and mid-search checkpoints to FILE so an interrupted "
        "run can be picked up with 'repro resume'",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=10,
        metavar="N",
        help="with --ledger, checkpoint each in-flight search every N "
        "ask/tell batches (lower = finer resume granularity, more "
        "ledger writes)",
    )
    run.add_argument("--out", type=Path, default=None, help="write report to file")


def _resolve_scale(name: str | None) -> Scale:
    """An explicit --scale choice, or the REPRO_SCALE/'smoke' default."""
    if name is None:
        return Scale.from_env(default="smoke")
    return Scale.named(name)


def _run_spec(args, scale: Scale, parser: argparse.ArgumentParser) -> StudySpec:
    """The Fig. 5/6 study a ``repro run``/``resume`` command line declares.

    A ``--ledger`` pins this spec's ``to_dict()``, so its form is fixed
    and ledgers begun by older versions still resume: the
    ``search-study`` preset with explicit strategy labels and the
    scale's steps and repeats written out, and each ``--scenario`` /
    ``--scenario-file`` entry inlined against the bundle's bounds under
    the key that selected it.  Out-of-range flag values fail here,
    naming the spec field.
    """
    preset = get_preset("search-study")
    try:
        spec = replace_execution(
            replace(
                preset,
                strategies=tuple(replace(s, label=s.name) for s in preset.strategies),
                hardware=args.hardware or (),
            ),
            num_steps=scale.search_steps,
            num_repeats=scale.num_repeats,
            master_seed=args.seed,
            batch_size=args.batch_size,
            backend=args.backend or ("process" if (args.workers or 1) > 1 else "serial"),
            workers=args.workers,
            checkpoint_every=args.checkpoint_every,
            surrogate=args.surrogate,
            exact_fraction=args.exact_fraction,
        )
        if args.scenario or args.scenario_file:
            builders = resolve_scenarios(args.scenario, args.scenario_file)
            bounds = load_bundle().bounds
            spec = replace(
                spec,
                scenarios=tuple(
                    {**scenario_to_dict(build(bounds)), "name": key}
                    for key, build in builders.items()
                ),
            )
    except (ScenarioError, StudyError) as err:
        parser.error(str(err))
    return spec


def _summary_markdown(name: str | None, summary: dict) -> str:
    """Render a study's JSON outcome summary as the report markdown.

    The one renderer behind both ``repro study run`` (local result)
    and ``repro watch`` (the summary a server stored), so the two
    surfaces print byte-identical reports for identical outcomes —
    which is exactly what the serving CI step diffs.
    """
    from repro.utils.tables import format_markdown

    lines = [f"## study {name}" if name else "## study"]
    for scenario, by_strategy in summary.items():
        lines.append("")
        lines.append(f"### {scenario}")
        rows = []
        for strategy, cell in by_strategy.items():
            mean = cell["mean_best_reward"]
            rows.append(
                (
                    strategy,
                    round(float("nan") if mean is None else mean, 4),
                    round(cell["hit_rate"], 2),
                    cell["repeats"],
                )
            )
        lines.append(
            format_markdown(
                ["strategy", "mean_best_reward", "feasible_hit_rate", "repeats"],
                rows,
            )
        )
    return "\n".join(lines)


def _study_markdown(result) -> str:
    """Per-scenario summary rows of a spec-driven study run."""
    spec = result.extras.get("spec")
    return _summary_markdown(
        spec.name if spec is not None else None, outcome_summary(result)
    )


def _main_hw(args, parser: argparse.ArgumentParser) -> int:
    import json

    if args.hw_command == "list":
        from repro.hw.tensorized import TENSORIZE_MAX_CONFIGS

        for name in list_platforms():
            size = build_platform(name).config_space().size
            note = (
                f"size={size}"
                if size <= TENSORIZE_MAX_CONFIGS
                else f"size={_sci(size)}, not enumerable"
            )
            print(f"{name:<24} {note}")
        return 0
    if args.hw_command == "validate-surrogate":
        from repro.hw import validate_surrogate

        try:
            report = validate_surrogate(
                args.platform, n_samples=args.samples, seed=args.seed
            )
        except HardwarePlatformError as err:
            parser.error(str(err))
        print(json.dumps(report, indent=2))
        if not report["budget"]["passed"]:
            failing = [
                metric
                for metric, verdict in report["budget"]["metrics"].items()
                if not verdict["passed"]
            ]
            print(
                f"error budget exceeded for: {', '.join(failing)}",
                file=sys.stderr,
            )
            return 1
        return 0
    try:
        entry = get_platform(args.platform)
        platform = build_platform(args.platform, parse_assignments(args.params))
    except (HardwarePlatformError, StudyError) as err:
        parser.error(str(err))
    description = dict(platform.describe())
    if entry.description:
        description["description"] = entry.description
    print(json.dumps(description, indent=2))
    return 0


def _sci(size: int) -> str:
    """Compact scientific size token, e.g. 393216 -> '3.9e5'."""
    exponent = len(str(size)) - 1
    return f"{size / 10 ** exponent:.1f}e{exponent}"


def _main_workload(args, parser: argparse.ArgumentParser) -> int:
    import json

    from repro.workloads import WorkloadError, get_workload, list_workloads

    if args.workload_command == "list":
        for name in list_workloads():
            print(name)
        return 0
    try:
        workload = get_workload(args.workload)
    except WorkloadError as err:
        parser.error(str(err))
    print(json.dumps(workload.describe(), indent=2))
    return 0


def _resolve_cli_spec(args, parser: argparse.ArgumentParser):
    """Resolve PRESET|SPEC.json + --hardware/--workload/--set to a spec."""
    try:
        spec = resolve_spec(args.spec)
        if args.hardware is not None:
            spec = spec.with_overrides({"hardware": {"name": args.hardware}})
        if args.workload is not None:
            spec = spec.with_overrides({"workload": args.workload})
        # One override pass, so the spec checks the two-tier flags
        # against every --set, in either order.
        overrides = {}
        if args.surrogate:
            overrides["execution.surrogate"] = True
        if args.exact_fraction is not None:
            overrides["execution.exact_fraction"] = args.exact_fraction
        overrides.update(parse_assignments(args.overrides))
        if overrides:
            spec = spec.with_overrides(overrides)
    except StudyError as err:
        parser.error(str(err))
    return spec


def _main_study(args, parser: argparse.ArgumentParser) -> int:
    if args.study_command == "list":
        for name in list_presets():
            print(name)
        return 0
    spec = _resolve_cli_spec(args, parser)
    if args.study_command == "show":
        print(spec.to_json())
        return 0
    scale = _resolve_scale(getattr(args, "scale", None))
    print(
        f"== study {spec.name} (scale={scale.name}) ==",
        file=sys.stderr,
    )
    try:
        result = run_study(spec, scale=scale)
    except (LedgerError, StudyError) as err:
        parser.error(str(err))
    report = _study_markdown(result)
    print(report)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(report + "\n")
        print(f"\nwritten to {args.out}", file=sys.stderr)
    return 0


def _client(args, parser: argparse.ArgumentParser):
    """A StudyClient for --server / REPRO_SERVER / the default URL."""
    import os

    from repro.server import DEFAULT_SERVER, StudyClient

    url = args.server or os.environ.get("REPRO_SERVER") or DEFAULT_SERVER
    return StudyClient(url)


def _main_serve(args, parser: argparse.ArgumentParser) -> int:
    from repro.experiments.common import default_cache_dir
    from repro.server import StudyServer

    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    state_dir = args.state_dir or (default_cache_dir() / "server")
    try:
        server = StudyServer(
            state_dir,
            host=args.host,
            port=args.port,
            workers=args.workers,
            scale=args.scale,
            imports=tuple(args.imports),
            stale_after=args.stale_after,
        )
    except ValueError as err:
        parser.error(str(err))
    except OSError as err:
        parser.error(f"cannot bind {args.host}:{args.port}: {err}")
    # Stdout on purpose: scripts (and the CI smoke step) bind port 0
    # and parse the ephemeral port from this line.
    print(f"serving on {server.url} (state: {server.queue.state_dir})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down (queued/running studies resume on next boot)",
              file=sys.stderr)
        server.queue.stop()
        server.httpd.server_close()
    return 0


def _watch_study(client, study_id: str, out: Path | None) -> int:
    """Follow one study to its end; print the final report. 0 iff done."""
    from repro.server import ServerError

    doc = None
    try:
        for doc in client.events(study_id):
            progress = doc.get("progress") or {}
            done = progress.get("done_repeats", 0)
            total = progress.get("total_repeats")
            print(
                f"{doc['id']}: {doc['state']}"
                + (f" — {done}/{total} repeats" if total else ""),
                file=sys.stderr,
            )
    except ServerError as err:
        # Stream dropped (server restarted?) — fall back to polling.
        print(f"event stream lost ({err}); polling instead", file=sys.stderr)
        doc = client.wait(study_id)
    if doc is None or doc["state"] != "done":
        state = doc["state"] if doc else "unknown"
        error = (doc or {}).get("error")
        print(f"study {study_id} ended {state}"
              + (f": {error}" if error else ""), file=sys.stderr)
        return 1
    result = doc.get("result") or {}
    report = _summary_markdown(result.get("name"), result.get("outcomes") or {})
    print(report)
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report + "\n")
        print(f"\nwritten to {out}", file=sys.stderr)
    return 0


def _main_server_client(args, parser: argparse.ArgumentParser) -> int:
    from repro.server import ServerError

    client = _client(args, parser)
    try:
        if args.command == "submit":
            spec = _resolve_cli_spec(args, parser)
            study_id = client.submit(spec.to_dict())["id"]
            print(study_id)
            if args.watch:
                return _watch_study(client, study_id, args.out)
            return 0
        if args.command == "status":
            import json

            if args.study is None:
                for doc in client.studies():
                    print(
                        f"{doc['id']}  {doc['state']:<9}  "
                        f"{doc.get('name') or '?'}"
                    )
                return 0
            print(json.dumps(client.status(args.study), indent=2))
            return 0
        if args.command == "watch":
            return _watch_study(client, args.study, args.out)
        if args.command == "cancel":
            doc = client.cancel(args.study)
            print(f"{doc['id']}: cancelled (was {doc['was']})")
            return 0
    except ServerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled server command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["worker"]:
        # The worker owns its argument surface (it is also reachable as
        # `python -m repro.parallel.worker`); hand the rest through.
        from repro.parallel.worker import main as worker_main

        return worker_main(argv[1:], prog="repro worker")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "hw":
        return _main_hw(args, parser)
    if args.command == "workload":
        return _main_workload(args, parser)
    if args.command == "study":
        return _main_study(args, parser)
    if args.command == "serve":
        return _main_serve(args, parser)
    if args.command in ("submit", "status", "watch", "cancel"):
        return _main_server_client(args, parser)
    if args.command == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.command == "resume":
        if args.ledger is None:
            parser.error("resume requires --ledger FILE (the ledger of the "
                         "interrupted run)")
        if not args.ledger.exists():
            parser.error(f"no ledger at {args.ledger} — nothing to resume "
                         "(start the run with 'repro run ... --ledger')")

    # --scenario / --scenario-file / --batch-size / --ledger only drive
    # the search-study experiments; reject runs where they would
    # silently change nothing (results-changing flags must never no-op).
    study_flags = []
    if args.scenario or args.scenario_file:
        study_flags.append("--scenario/--scenario-file")
    if args.batch_size != 1:
        study_flags.append("--batch-size")
    if args.ledger is not None:
        study_flags.append("--ledger")
    if args.surrogate:
        study_flags.append("--surrogate")
    if args.exact_fraction is not None:
        study_flags.append("--exact-fraction")
    if args.backend is not None:
        study_flags.append("--backend")
        if args.backend == "cluster" and args.ledger is None:
            parser.error(
                "--backend cluster requires --ledger FILE: workers "
                "coordinate through the ledger's task-lease table"
            )
    if study_flags:
        selected = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
        uses_study = [name for name in selected if name in STUDY_EXPERIMENTS]
        if not uses_study:
            parser.error(
                f"{' and '.join(study_flags)} only affect the search-study "
                f"experiments ({', '.join(STUDY_EXPERIMENTS)}); "
                f"'{args.experiment}' would ignore them"
            )
        ignored = [name for name in selected if name not in STUDY_EXPERIMENTS]
        if ignored:
            print(
                f"note: {' and '.join(study_flags)} affect only "
                f"{', '.join(uses_study)}; {', '.join(ignored)} run unchanged",
                file=sys.stderr,
            )
    if args.hardware is not None:
        try:
            get_platform(args.hardware)
        except HardwarePlatformError as err:
            parser.error(str(err))
        selected = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
        uses_hw = [name for name in selected if name in HARDWARE_EXPERIMENTS]
        if not uses_hw:
            parser.error(
                f"--hardware only affects the platform-evaluating "
                f"experiments ({', '.join(HARDWARE_EXPERIMENTS)}); "
                f"'{args.experiment}' would ignore it"
            )
        ignored = [name for name in selected if name not in HARDWARE_EXPERIMENTS]
        if ignored:
            print(
                f"note: --hardware affects only {', '.join(uses_hw)}; "
                f"{', '.join(ignored)} run unchanged",
                file=sys.stderr,
            )

    scale = _resolve_scale(args.scale)
    ctx = RunContext(
        scale=scale,
        seed=args.seed,
        spec=_run_spec(args, scale, parser),
        eval_cache=(
            EvalCache(eval_cache_path(args.cache_dir))
            if args.cache_dir is not None
            else None
        ),
        ledger=RunLedger(args.ledger) if args.ledger is not None else None,
        hardware=args.hardware,
    )
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    reports = []
    for name in names:
        print(f"== {name} (scale={scale.name}) ==", file=sys.stderr)
        try:
            reports.append(f"## {name}\n\n{EXPERIMENTS[name](ctx)}")
        except (LedgerError, StudyError) as err:
            parser.error(str(err))
    if ctx.eval_cache is not None:
        ctx.eval_cache.flush()
        stats = ctx.eval_cache.stats
        print(
            f"eval cache: {stats['persisted']} rows, "
            f"{100.0 * stats['hit_rate']:.0f}% hit rate this run",
            file=sys.stderr,
        )
    if ctx.ledger is not None:
        progress = ctx.ledger.progress()
        print(
            f"ledger: {progress['done']} repeats done, "
            f"{progress['checkpointed']} checkpointed in flight",
            file=sys.stderr,
        )
        for entry in ctx.ledger.executions():
            if entry.get("effective") != entry.get("requested"):
                print(
                    f"note: backend '{entry.get('requested')}' fell back to "
                    f"'{entry.get('effective')}' (recorded in the ledger)",
                    file=sys.stderr,
                )
    report = "\n\n".join(reports)
    print(report)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(report + "\n")
        print(f"\nwritten to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
