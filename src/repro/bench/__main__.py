"""Command-line entry point for the experiment sweep harness.

Usage::

    python -m repro.bench list
    python -m repro.bench fig5 --workers 4
    python -m repro.bench table2 --cache-dir .sweep-cache --json out.json
    python -m repro.bench run --runtime realtime --duration 3
    python -m repro.bench run --protocol iss-pbft --scenario lossy-lan
    python -m repro.bench scenario list
    python -m repro.bench scenario run wan-partition --protocol ladon-pbft
    python -m repro.bench scenario sweep --scenarios all --workers 4
    python -m repro.bench adversary list
    python -m repro.bench adversary run equivocation --n 4 --duration 20
    python -m repro.bench fuzz run --seeds 16 --workers 4
    python -m repro.bench fuzz replay tests/corpus/*.json

The whole CLI is one argparse tree (:func:`build_parser`): each subcommand
is a subparser whose ``handler`` default runs it.  Experiment names map to
functions in :mod:`repro.bench.experiments`; the grid-shaped ones (those
taking a ``sweep=`` runner) and scenario sweeps run through a
:class:`~repro.bench.sweep.SweepRunner` wired to the chosen worker count and
cache directory, with per-cell progress streamed to stderr.  ``run``,
``scenario run`` and ``adversary run`` share one argument block and one
report path, and exit non-zero when the safety auditor reports violations.

The fuzz campaign engine (:mod:`repro.fuzz.campaign`) is wall-clock-free by
the determinism rules (DET-001); the wall-clock budget for ``fuzz run`` lives
here, injected as a ``should_stop`` callable — the bench package is the one
place wall clocks are allowed.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.adversary.attacks import MESSAGE_KINDS
from repro.adversary.registry import available_adversaries, get_adversary
from repro.bench import experiments
from repro.bench.config import ExperimentCell
from repro.bench.report import format_series, format_table
from repro.bench.runner import run_des_cell
from repro.bench.sweep import SweepProgress, SweepRunner, expand_grid
from repro.scenario.registry import available_scenarios, get_scenario

#: columns shared by every metrics row, printed in this order when present
DEFAULT_COLUMNS = (
    "protocol",
    "n",
    "stragglers",
    "environment",
    "throughput_tps",
    "peak_throughput_tps",
    "average_latency_s",
    "causal_strength",
    "confirmed_blocks",
)

#: experiment name -> function; grid-shaped ones take a ``sweep=`` runner
EXPERIMENTS: Dict[str, Callable] = {
    "fig2a": experiments.fig2a_analytical,
    "fig2b": experiments.fig2b_iss_stragglers,
    "fig5": experiments.fig5_scaling,
    "fig6": experiments.fig6_straggler_count,
    "fig7": experiments.fig7_byzantine_stragglers,
    "fig8": experiments.fig8_crash_recovery,
    "table1": experiments.table1_resources,
    "table2": experiments.table2_causality,
    "fig10": experiments.fig10_hotstuff,
    "appendix-a": experiments.appendix_a_complexity,
}


def _sweepable(fn: Callable) -> bool:
    return "sweep" in inspect.signature(fn).parameters


def _summary(fn: Callable) -> str:
    return (fn.__doc__ or "").strip().splitlines()[0]


def _progress_printer(stream) -> Callable[[SweepProgress], None]:
    def _print(progress: SweepProgress) -> None:
        source = "cached" if progress.source == "cache" else "ran"
        stream.write(
            f"\r[{progress.done}/{progress.total}] {source} {progress.label}"
            f" ({progress.cached} cache hits)   "
        )
        stream.flush()
        if progress.done == progress.total:
            stream.write("\n")

    return _print


def _rows_of(result: object) -> List[dict]:
    """Flatten an experiment result into printable rows, best effort."""
    if isinstance(result, list) and result and isinstance(result[0], dict):
        return result
    if isinstance(result, dict):
        rows: List[dict] = []
        for key, value in result.items():
            if isinstance(value, list) and value and isinstance(value[0], dict):
                for row in value:
                    rows.append({"group": key, **row})
            elif isinstance(value, dict) and "protocol" in value:
                rows.append({"group": key, **value})
        return rows
    return []


def _print_result(name: str, result: object) -> None:
    if name == "fig8":
        series = result.get("throughput_series", [])
        print(format_series(series, title="fig8: throughput over time (tx/s)"))
        print(f"crash at t={result['crash_time']}s; "
              f"view change completed at t={result['view_change_completed_at']}")
        rows = [result["metrics"]]
    else:
        rows = _rows_of(result)
    if rows:
        columns = [c for c in ("group",) + DEFAULT_COLUMNS if any(c in r for r in rows)]
        extra = [c for c in rows[0] if c not in columns and c not in DEFAULT_COLUMNS]
        print(format_table(rows, columns=columns + extra[:3], title=name))
    elif name != "fig8":
        print(json.dumps(result, indent=2, default=repr))


def _dump(path: str, payload: object) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=repr)


# ---------------------------------------------------------- argument blocks
def _add_json_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", dest="json_path", help="also dump the result as JSON")


def _add_cell_arguments(parser: argparse.ArgumentParser, n: int, duration: float,
                        batch_size: int, runtime: bool = True) -> None:
    """The one-cell block; ``runtime=False`` leaves out the backend choice."""
    parser.add_argument("--protocol", default="ladon-pbft")
    parser.add_argument("--n", type=int, default=n)
    parser.add_argument("--duration", type=float, default=duration,
                        help="simulated seconds (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base cell seed (workload/latency RNG)")
    parser.add_argument("--batch-size", type=int, default=batch_size)
    if runtime:
        parser.add_argument("--runtime", choices=["des", "realtime"], default="des",
                            help="execution backend (default: des)")
        parser.add_argument("--timescale", type=float, default=1.0,
                            help="realtime only: wall seconds per simulated second "
                                 "(0.5 runs a 10 s scenario in ~5 s)")
    _add_json_argument(parser)


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for grid cells (1 = sequential in-process)")
    parser.add_argument("--cache-dir", default=".sweep-cache",
                        help="directory for the on-disk result cache (default: .sweep-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="run every cell even if cached")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    _add_json_argument(parser)


def _sweep_runner(args: argparse.Namespace) -> SweepRunner:
    return SweepRunner(
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        progress=None if args.quiet else _progress_printer(sys.stderr),
    )


def _cell(args: argparse.Namespace, **fields) -> ExperimentCell:
    """The cell of the one-cell block, plus the subcommand's own ``fields``.

    A value the cell refuses is a usage error (exit status 2), not a traceback.
    """
    try:
        return ExperimentCell(
            protocol=args.protocol,
            n=args.n,
            duration=args.duration,
            seed=args.seed,
            batch_size=args.batch_size,
            runtime=args.runtime,
            realtime_timescale=args.timescale,
            **fields,
        )
    except ValueError as error:
        args.parser.error(str(error))


def _row(result, cell: ExperimentCell, **fields) -> dict:
    """A metrics row, with the environment the cell's scenario actually ran in."""
    return {**result.metrics.as_dict(),
            "environment": cell.effective_environment(), **fields}


def _report(result, table: List[dict], columns: Sequence[str], title: str,
            json_path: Optional[str], **payload) -> bool:
    """Print ``table``, the audit and the dynamics timeline; dump ``payload``
    plus both to ``json_path``.  Returns the auditor's safety verdict."""
    audit = result.audit
    print(format_table(table, columns=list(columns), title=title))
    print(f"audit: {audit.summary()}")
    for violation in audit.violations[:5]:
        print(f"  VIOLATION {violation}")
    if len(audit.violations) > 5:
        print(f"  ... and {len(audit.violations) - 5} more")
    if result.dynamics_log:
        print("timeline:")
        for at, kind, detail in result.dynamics_log:
            print(f"  t={at:7.3f}s  {kind:28s} {detail}")
    if json_path:
        payload["audit"] = {
            "safety_ok": audit.safety_ok,
            "violations": [str(v) for v in audit.violations],
            "stalled_instances": list(audit.stalled_instances),
            "honest_replicas": list(audit.honest_replicas),
        }
        payload["dynamics_log"] = result.dynamics_log
        _dump(json_path, payload)
    return audit.safety_ok


# ---------------------------------------------------------------- handlers
def _list(args: argparse.Namespace) -> int:
    for name in sorted(EXPERIMENTS):
        suffix = " (sweepable)" if _sweepable(EXPERIMENTS[name]) else ""
        print(f"{name:12s} {_summary(EXPERIMENTS[name])}{suffix}")
    print("run          one cell on a chosen backend: 'run --runtime des|realtime'")
    print("scenario     named-scenario engine: 'scenario list|run|sweep' (sweepable)")
    print("adversary    Byzantine attack catalog: 'adversary list|run'")
    print("fuzz         schedule-space fuzzer: 'fuzz run|replay|shrink'")
    return 0


def _experiment(args: argparse.Namespace) -> int:
    fn = EXPERIMENTS[args.experiment]
    result = fn(sweep=_sweep_runner(args)) if _sweepable(fn) else fn()
    if args.json_path:
        _dump(args.json_path, result)
    _print_result(args.experiment, result)
    return 0


def _run(args: argparse.Namespace) -> int:
    cell = _cell(args, scenario=args.scenario, adversary=args.adversary)
    result = run_des_cell(cell)
    row = _row(result, cell, runtime=args.runtime)
    safe = _report(result, [row], ["runtime"] + list(DEFAULT_COLUMNS),
                   f"run {cell.label()}", args.json_path,
                   cell=cell.label(), runtime=args.runtime, metrics=row)
    return 0 if safe else 1


def _scenario_list(args: argparse.Namespace) -> int:
    for name in available_scenarios():
        spec = get_scenario(name)
        print(f"{name:16s} [{spec.environment}] {spec.description or spec.describe()}")
    return 0


def _scenario_run(args: argparse.Namespace) -> int:
    cell = _cell(args, scenario=args.name)
    spec = cell.scenario_spec()
    result = run_des_cell(cell)
    row = _row(result, cell, scenario=args.name)
    safe = _report(result, [row], list(DEFAULT_COLUMNS) + ["scenario"],
                   f"scenario {args.name}: {spec.description or spec.describe()}",
                   args.json_path, scenario=args.name, metrics=row,
                   throughput_series=result.throughput_series,
                   crash_log=result.crash_log)
    return 0 if safe else 1


def _scenario_sweep(args: argparse.Namespace) -> int:
    names = (
        available_scenarios()
        if args.scenarios == "all"
        else [name.strip() for name in args.scenarios.split(",") if name.strip()]
    )
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    cells = expand_grid(
        {"scenario": names, "protocol": protocols},
        defaults=dict(n=args.n, duration=args.duration, seed=args.seed,
                      batch_size=args.batch_size),
    )
    rows = _sweep_runner(args).run(cells)
    for cell, row in zip(cells, rows):
        row["scenario"] = cell.scenario
        row["environment"] = cell.effective_environment()
    print(format_table(
        rows,
        columns=["scenario"] + [c for c in DEFAULT_COLUMNS if c != "stragglers"],
        title=f"scenario sweep ({len(names)} scenarios x {len(protocols)} protocols)",
    ))
    if args.json_path:
        _dump(args.json_path, rows)
    return 0


def _adversary_list(args: argparse.Namespace) -> int:
    print("attack catalog (compose with AdversarySpec; see repro.adversary):")
    print("  equivocation       conflicting proposals/votes to disjoint replica sets")
    print("  silence            selective suppression per target/kind/instance")
    print("  delayed-votes      hold messages just under the view-change timeout")
    print("  rank-manipulation  the paper's Byzantine straggler (Sec. 4.4)")
    print(f"  message kinds: {', '.join(MESSAGE_KINDS)}")
    print()
    print("named adversaries (python -m repro.bench adversary run <name>):")
    for name in available_adversaries():
        spec = get_adversary(name)
        print(f"  {name:24s} {spec.description or spec.describe()}")
    print()
    print("adversarial scenarios (python -m repro.bench scenario run byz-*):")
    for name in available_scenarios():
        if name.startswith("byz-"):
            print(f"  {name:24s} {get_scenario(name).description}")
    return 0


def _adversary_run(args: argparse.Namespace) -> int:
    cell = _cell(args, scenario=args.scenario, adversary=args.name)
    spec = cell.adversary_spec()
    baseline_label = "honest"
    if args.scenario is not None and cell.scenario_spec().adversary is not None:
        # The base scenario is itself adversarial: the comparison run is
        # a baseline for the *extra* attack, not an honest deployment.
        baseline_label = f"baseline ({args.scenario})"
        print(
            f"note: scenario {args.scenario!r} declares its own adversary; "
            f"the comparison row is that scenario, not an honest run",
            file=sys.stderr,
        )
    result = run_des_cell(cell)
    rows = []
    if not args.no_baseline:
        baseline_cell = _cell(args, scenario=args.scenario)
        rows.append(_row(run_des_cell(baseline_cell), baseline_cell, run=baseline_label))
    rows.append(_row(result, cell, run=args.name))
    columns = ["run"] + [c for c in DEFAULT_COLUMNS if c != "stragglers"]
    columns += ["safety_violations", "stalled_instances"]
    safe = _report(result, rows, columns,
                   f"adversary {args.name}: {spec.description or spec.describe()}",
                   args.json_path, adversary=args.name, rows=rows)
    # exit 0 exactly when the auditor's verdict matches the expectation: a
    # negative control (--expect-unsafe) that fails to break safety is a
    # failure too.
    return 0 if safe != args.expect_unsafe else 1


def _budget_stopper(budget_s: Optional[float]) -> Optional[Callable[[], bool]]:
    if budget_s is None:
        return None
    deadline = time.monotonic() + budget_s
    return lambda: time.monotonic() >= deadline


def _fuzz_run(args: argparse.Namespace) -> int:
    from repro.fuzz.artifact import write_artifact
    from repro.fuzz.campaign import FuzzConfig, run_campaign

    # Every campaign option is named after its FuzzConfig field.
    known = {field.name for field in dataclasses.fields(FuzzConfig)}
    config = FuzzConfig(
        **{name: value for name, value in vars(args).items() if name in known}
    )
    report = run_campaign(
        config,
        runner=SweepRunner(workers=args.workers),
        should_stop=_budget_stopper(args.budget),
        stop_on_violation=not args.keep_going,
        do_shrink=not args.no_shrink,
        shrink_max_tests=args.shrink_tests,
        log=lambda message: print(f"fuzz: {message}", file=sys.stderr),
    )
    print(
        f"fuzz run: {report.seeds_run}/{config.seeds} seeds, "
        f"{len(report.findings)} violation(s)"
        + (" [budget hit]" if report.stopped_early else "")
    )
    for finding in report.findings:
        kinds = ",".join(finding.artifact["expected"]["violation_kinds"])
        line = f"  seed {finding.seed_index}: {kinds}"
        if finding.shrink_result is not None:
            line += (
                f" (shrunk to {finding.shrink_result.nonzero_decisions} "
                f"decisions in {finding.shrink_result.tests} tests)"
            )
        print(line)
        if args.artifact_dir:
            os.makedirs(args.artifact_dir, exist_ok=True)
            path = os.path.join(
                args.artifact_dir, f"fuzz-faithful-seed{finding.seed_index}.json"
            )
            write_artifact(path, finding.artifact)
            print(f"  artifact: {path}")
    if args.json_path:
        _dump(args.json_path, {
            "seeds_run": report.seeds_run,
            "stopped_early": report.stopped_early,
            "findings": [
                {"seed_index": f.seed_index, "artifact": f.artifact}
                for f in report.findings
            ],
            "rows": report.rows,
        })
    return 1 if report.findings else 0


def _fuzz_replay(args: argparse.Namespace) -> int:
    from repro.fuzz.artifact import read_artifact
    from repro.fuzz.replay import replay_artifact

    status = 0
    for path in args.artifact:
        artifact = read_artifact(path)
        report = replay_artifact(artifact)
        note = artifact.get("note", "")
        print(f"{path}: {report.summary()}" + (f"  [{note}]" if note else ""))
        if not report.ok:
            status = 1
    return status


def _fuzz_shrink(args: argparse.Namespace) -> int:
    from repro.fuzz.artifact import (
        artifact_cell,
        make_artifact,
        outcome_of,
        read_artifact,
        write_artifact,
    )
    from repro.fuzz.campaign import predicate_for
    from repro.fuzz.replay import run_cell_traced
    from repro.fuzz.shrink import shrink

    artifact = read_artifact(args.artifact)
    cell = artifact_cell(artifact)
    # Preserve the finding's class while minimizing: a safety artifact must
    # not shrink into a liveness-only repro.
    predicate = predicate_for(artifact["expected"])
    if not predicate(cell):
        print(f"{args.artifact}: cell no longer violates; nothing to shrink")
        return 1
    result = shrink(cell, predicate, max_tests=args.shrink_tests)
    print(
        f"{args.artifact}: {result.nonzero_decisions} nonzero decisions "
        f"after {result.tests} tests ({result.accepted} reductions)"
    )
    system, run_result = run_cell_traced(result.cell)
    outcome = outcome_of(run_result, system.trace.events)
    minimized = make_artifact(
        result.cell, outcome, system.trace.events, note=artifact.get("note", "")
    )
    out_path = args.output or args.artifact
    write_artifact(out_path, minimized)
    print(f"wrote {out_path}")
    return 0


# -------------------------------------------------------------- the parser
def _command(commands, name: str, handler: Callable, about: str, **defaults):
    """Add subcommand ``name``: ``about`` is its help line and description."""
    parser = commands.add_parser(name, help=about, description=about)
    parser.set_defaults(handler=handler, parser=parser, **defaults)
    return parser


def _group(commands, name: str, about: str):
    parser = commands.add_parser(name, help=about, description=about)
    return parser.add_subparsers(dest="action", required=True)


def build_parser() -> argparse.ArgumentParser:
    """The whole CLI: one subparser per subcommand, each with a ``handler``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures via the sweep "
        "harness; run scenarios, adversaries and fuzz campaigns.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # ``list`` has always taken the experiments' sweep flags; it ignores them.
    _add_sweep_arguments(_command(commands, "list", _list, "list the experiments"))
    for name in sorted(EXPERIMENTS):
        fn = EXPERIMENTS[name]
        experiment = _command(commands, name, _experiment, _summary(fn), experiment=name)
        if _sweepable(fn):
            _add_sweep_arguments(experiment)
        else:
            _add_json_argument(experiment)

    run = _command(commands, "run", _run,
                   "Run one experiment cell end-to-end on a chosen runtime backend "
                   "(DES virtual time, or asyncio wall clock) and audit it.")
    _add_cell_arguments(run, n=4, duration=5.0, batch_size=1024)
    run.add_argument("--scenario", help="named scenario (default: paper WAN preset)")
    run.add_argument("--adversary", help="named adversary (default: all honest)")

    scenario = _group(commands, "scenario",
                      "Run named scenarios through the DES engine and sweep harness.")
    _command(scenario, "list", _scenario_list, "list the registered scenarios")
    scenario_run = _command(scenario, "run", _scenario_run, "run one scenario end-to-end")
    scenario_run.add_argument("name", help="scenario name (see 'scenario list')")
    _add_cell_arguments(scenario_run, n=8, duration=30.0, batch_size=1024)
    sweep = _command(scenario, "sweep", _scenario_sweep, "grid of scenarios x protocols")
    sweep.add_argument("--scenarios", default="all", help="comma-separated names, or 'all' (default)")
    sweep.add_argument("--protocols", default="ladon-pbft,iss-pbft")
    sweep.add_argument("--n", type=int, default=8)
    sweep.add_argument("--duration", type=float, default=30.0)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--batch-size", type=int, default=1024)
    _add_sweep_arguments(sweep)

    adversary = _group(commands, "adversary",
                       "Run catalog adversaries against an honest baseline, with audit.")
    _command(adversary, "list", _adversary_list,
             "list the attack catalog and named adversaries")
    adversary_run = _command(adversary, "run", _adversary_run,
                             "run one named adversary against the honest baseline")
    adversary_run.add_argument("name", help="adversary name (see 'adversary list')")
    _add_cell_arguments(adversary_run, n=4, duration=30.0, batch_size=1024)
    adversary_run.add_argument("--scenario",
                               help="base scenario to attack (default: paper WAN preset)")
    adversary_run.add_argument("--no-baseline", action="store_true",
                               help="skip the honest comparison run")
    adversary_run.add_argument("--expect-unsafe", action="store_true",
                               help="exit 0 only when the auditor reports violations "
                                    "(negative controls like equivocation-colluding)")

    fuzz = _group(commands, "fuzz",
                  "Schedule-space fuzzing: perturb delivery schedules, audit every "
                  "run, shrink violations to minimal replayable artifacts.")
    fuzz_run = _command(fuzz, "run", _fuzz_run,
                        "sweep perturbation seeds, audit every run, shrink and "
                        "serialize violations (exit 1 iff a violation was found)")
    _add_cell_arguments(fuzz_run, n=4, duration=8.0, batch_size=64, runtime=False)
    fuzz_run.add_argument("--seeds", type=int, default=16, help="perturbation seeds to sweep (default: 16)")
    fuzz_run.add_argument("--base-seed", type=int, default=0,
                          help="campaign seed the perturbation seeds derive from")
    fuzz_run.add_argument("--max-delay", type=float, default=1.2,
                          help="per-delivery delay bound in seconds")
    fuzz_run.add_argument("--probability", type=float, default=0.08,
                          help="fraction of deliveries perturbed")
    fuzz_run.add_argument("--view-change-timeout", type=float, default=1.0)
    fuzz_run.add_argument("--propose-timeout", type=float, default=2.0,
                          help="follower-side view-change trigger (default: 2.0); "
                               "ignored for ladon-hotstuff and iss-hotstuff, "
                               "which have no view change")
    fuzz_run.add_argument("--scenario")
    fuzz_run.add_argument("--adversary")
    fuzz_run.add_argument("--workers", type=int, default=1, help="sweep worker processes (default: 1)")
    fuzz_run.add_argument("--budget", type=float,
                          help="wall-clock budget in seconds (checked "
                               "between seed batches)")
    fuzz_run.add_argument("--keep-going", action="store_true",
                          help="continue after the first violation")
    fuzz_run.add_argument("--no-shrink", action="store_true",
                          help="serialize violations without minimizing")
    fuzz_run.add_argument("--shrink-tests", type=int, default=48,
                          help="max shrink predicate evaluations per finding")
    fuzz_run.add_argument("--artifact-dir",
                          help="write violation artifacts into this directory")
    replay = _command(fuzz, "replay", _fuzz_replay,
                      "re-execute artifacts and check bit-exactness (exit 0 iff "
                      "each replay reproduces its pinned trace digest and audit "
                      "verdict)")
    replay.add_argument("artifact", nargs="+",
                        help="artifact JSON path(s), e.g. tests/corpus/*.json")
    shrink = _command(fuzz, "shrink", _fuzz_shrink,
                      "re-minimize an existing artifact with a fresh test budget")
    shrink.add_argument("artifact", help="artifact JSON path")
    shrink.add_argument("--shrink-tests", type=int, default=96)
    shrink.add_argument("--output", help="write here instead of overwriting")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
