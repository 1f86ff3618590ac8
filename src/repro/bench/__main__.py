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

Each experiment name maps to the corresponding function in
:mod:`repro.bench.experiments`; grid-shaped experiments (and scenario
sweeps) run through a :class:`~repro.bench.sweep.SweepRunner` wired to the
chosen worker count and cache directory, with per-cell progress streamed to
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.bench import experiments
from repro.bench.config import ExperimentCell
from repro.bench.report import format_series, format_table
from repro.bench.sweep import SweepProgress, SweepRunner

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

#: experiment name -> (function, takes_sweep_runner)
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

#: experiments that accept a ``sweep=`` runner (grid-shaped)
SWEEPABLE = {"fig2b", "fig5", "fig6", "fig7", "table1", "table2", "fig10"}


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


# ------------------------------------------------------------- run CLI
def run_main(argv: Sequence[str]) -> int:
    """``python -m repro.bench run``: one cell on a chosen execution backend."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench run",
        description="Run one experiment cell end-to-end on a chosen runtime "
        "backend (DES virtual time, or asyncio wall clock) and audit it.",
    )
    parser.add_argument("--runtime", choices=["des", "realtime"], default="des",
                        help="execution backend (default: des)")
    parser.add_argument("--protocol", default="ladon-pbft")
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--duration", type=float, default=5.0,
                        help="simulated seconds (realtime: wall-clock seconds "
                             "scaled by --timescale)")
    parser.add_argument("--timescale", type=float, default=1.0,
                        help="realtime only: wall seconds per simulated second "
                             "(0.5 runs a 10 s scenario in ~5 s)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batch-size", type=int, default=1024)
    parser.add_argument("--scenario", default=None,
                        help="named scenario (default: paper WAN preset)")
    parser.add_argument("--adversary", default=None,
                        help="named adversary (default: all honest)")
    parser.add_argument("--json", dest="json_path")
    args = parser.parse_args(argv)

    from repro.bench.runner import run_des_cell

    cell = ExperimentCell(
        protocol=args.protocol,
        n=args.n,
        duration=args.duration,
        seed=args.seed,
        batch_size=args.batch_size,
        scenario=args.scenario,
        adversary=args.adversary,
        runtime=args.runtime,
        realtime_timescale=args.timescale,
    )
    result = run_des_cell(cell)
    row = result.metrics.as_dict()
    row["runtime"] = args.runtime
    print(format_table([row], columns=["runtime"] + list(DEFAULT_COLUMNS),
                       title=f"run {cell.label()}"))
    for line in _audit_lines(result):
        print(line)
    if result.dynamics_log:
        print("timeline:")
        for time, kind, detail in result.dynamics_log:
            print(f"  t={time:7.3f}s  {kind:28s} {detail}")
    if args.json_path:
        payload = {
            "cell": cell.label(),
            "runtime": args.runtime,
            "metrics": row,
            "audit": {
                "safety_ok": result.audit.safety_ok,
                "violations": [str(v) for v in result.audit.violations],
                "stalled_instances": list(result.audit.stalled_instances),
            },
            "dynamics_log": result.dynamics_log,
        }
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=repr)
    return 0 if result.audit.safety_ok else 1


# ------------------------------------------------------------ adversary CLI
def _adversary_list() -> int:
    from repro.adversary.attacks import MESSAGE_KINDS
    from repro.adversary.registry import available_adversaries, get_adversary

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
    from repro.scenario.registry import available_scenarios, get_scenario

    for name in available_scenarios():
        if name.startswith("byz-"):
            print(f"  {name:24s} {get_scenario(name).description}")
    return 0


def _audit_lines(result) -> List[str]:
    lines = [f"audit: {result.audit.summary()}"]
    for violation in result.audit.violations[:5]:
        lines.append(f"  VIOLATION {violation}")
    if len(result.audit.violations) > 5:
        lines.append(f"  ... and {len(result.audit.violations) - 5} more")
    return lines


def _adversary_run(args: argparse.Namespace) -> int:
    from repro.adversary.registry import get_adversary
    from repro.bench.runner import run_des_cell

    spec = get_adversary(args.name)  # fail fast on unknown names
    common = dict(
        protocol=args.protocol,
        n=args.n,
        duration=args.duration,
        seed=args.seed,
        batch_size=args.batch_size,
        scenario=args.scenario,
        runtime=args.runtime,
        realtime_timescale=args.timescale,
    )
    baseline_label = "honest"
    if args.scenario is not None:
        from repro.scenario.registry import get_scenario

        if get_scenario(args.scenario).adversary is not None:
            # The base scenario is itself adversarial: the comparison run is
            # a baseline for the *extra* attack, not an honest deployment.
            baseline_label = f"baseline ({args.scenario})"
            print(
                f"note: scenario {args.scenario!r} declares its own adversary; "
                f"the comparison row is that scenario, not an honest run",
                file=sys.stderr,
            )
    adversarial_cell = ExperimentCell(adversary=args.name, **common)
    result = run_des_cell(adversarial_cell)
    rows = []
    if not args.no_baseline:
        baseline = run_des_cell(ExperimentCell(**common))
        row = baseline.metrics.as_dict()
        row["run"] = baseline_label
        rows.append(row)
    row = result.metrics.as_dict()
    row["run"] = args.name
    rows.append(row)
    columns = ["run"] + [c for c in DEFAULT_COLUMNS if c != "stragglers"]
    columns += ["safety_violations", "stalled_instances"]
    print(format_table(
        rows,
        columns=columns,
        title=f"adversary {args.name}: {spec.description or spec.describe()}",
    ))
    for line in _audit_lines(result):
        print(line)
    if result.dynamics_log:
        print("timeline:")
        for time, kind, detail in result.dynamics_log:
            print(f"  t={time:7.3f}s  {kind:28s} {detail}")
    if args.json_path:
        payload = {
            "adversary": args.name,
            "rows": rows,
            "audit": {
                "safety_ok": result.audit.safety_ok,
                "violations": [str(v) for v in result.audit.violations],
                "stalled_instances": list(result.audit.stalled_instances),
                "honest_replicas": list(result.audit.honest_replicas),
            },
            "dynamics_log": result.dynamics_log,
        }
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=repr)
    # exit 0 exactly when the auditor's verdict matches the expectation: a
    # negative control (--expect-unsafe) that fails to break safety is a
    # failure too.
    return 0 if result.audit.safety_ok != args.expect_unsafe else 1


def adversary_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench adversary",
        description="Run catalog adversaries against an honest baseline, with audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the attack catalog and named adversaries")

    run_parser = sub.add_parser(
        "run", help="run one named adversary and compare against the honest baseline"
    )
    run_parser.add_argument("name", help="adversary name (see 'adversary list')")
    run_parser.add_argument("--protocol", default="ladon-pbft")
    run_parser.add_argument("--n", type=int, default=4)
    run_parser.add_argument("--duration", type=float, default=30.0)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--batch-size", type=int, default=1024)
    run_parser.add_argument("--scenario", default=None,
                            help="base scenario to attack (default: paper WAN preset)")
    run_parser.add_argument("--runtime", choices=["des", "realtime"], default="des",
                            help="execution backend (default: des)")
    run_parser.add_argument("--timescale", type=float, default=1.0,
                            help="realtime only: wall seconds per simulated second")
    run_parser.add_argument("--no-baseline", action="store_true",
                            help="skip the honest comparison run")
    run_parser.add_argument("--expect-unsafe", action="store_true",
                            help="exit 0 even when the auditor reports violations "
                                 "(negative controls like equivocation-colluding)")
    run_parser.add_argument("--json", dest="json_path")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _adversary_list()
    return _adversary_run(args)


# ------------------------------------------------------------- scenario CLI
def _scenario_list() -> int:
    from repro.scenario.registry import available_scenarios, get_scenario

    for name in available_scenarios():
        spec = get_scenario(name)
        print(f"{name:16s} [{spec.environment}] {spec.description or spec.describe()}")
    return 0


def _scenario_run(args: argparse.Namespace) -> int:
    from repro.bench.runner import run_des_cell
    from repro.scenario.registry import get_scenario

    spec = get_scenario(args.name)  # fail fast on unknown names
    cell = ExperimentCell(
        protocol=args.protocol,
        n=args.n,
        environment=spec.environment,
        duration=args.duration,
        seed=args.seed,
        batch_size=args.batch_size,
        scenario=args.name,
        runtime=args.runtime,
        realtime_timescale=args.timescale,
    )
    result = run_des_cell(cell)
    row = result.metrics.as_dict()
    row["scenario"] = args.name
    row["environment"] = spec.environment
    print(format_table([row], columns=list(DEFAULT_COLUMNS) + ["scenario"],
                       title=f"scenario {args.name}: {spec.description or spec.describe()}"))
    if result.dynamics_log:
        print("timeline:")
        for time, kind, detail in result.dynamics_log:
            print(f"  t={time:7.3f}s  {kind:12s} {detail}")
    for line in _audit_lines(result):
        print(line)
    if args.json_path:
        payload = {
            "scenario": args.name,
            "metrics": row,
            "dynamics_log": result.dynamics_log,
            "throughput_series": result.throughput_series,
            "crash_log": result.crash_log,
        }
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=repr)
    return 0


def _scenario_sweep(args: argparse.Namespace) -> int:
    from repro.bench.sweep import expand_grid
    from repro.scenario.registry import available_scenarios, get_scenario

    names = (
        available_scenarios()
        if args.scenarios == "all"
        else [name.strip() for name in args.scenarios.split(",") if name.strip()]
    )
    for name in names:
        get_scenario(name)  # fail fast on unknown names
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    cells = expand_grid(
        {"scenario": names, "protocol": protocols},
        defaults=dict(n=args.n, duration=args.duration, seed=args.seed,
                      batch_size=args.batch_size),
    )
    runner = SweepRunner(
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        progress=None if args.quiet else _progress_printer(sys.stderr),
    )
    rows = runner.run(cells)
    for cell, row in zip(cells, rows):
        row["scenario"] = cell.scenario
        row["environment"] = cell.effective_environment()
    print(format_table(
        rows,
        columns=["scenario"] + [c for c in DEFAULT_COLUMNS if c != "stragglers"],
        title=f"scenario sweep ({len(names)} scenarios x {len(protocols)} protocols)",
    ))
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2, default=repr)
    return 0


def scenario_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench scenario",
        description="Run named scenarios through the DES engine and sweep harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the registered scenarios")

    run_parser = sub.add_parser("run", help="run one scenario end-to-end")
    run_parser.add_argument("name", help="scenario name (see 'scenario list')")
    run_parser.add_argument("--protocol", default="ladon-pbft")
    run_parser.add_argument("--n", type=int, default=8)
    run_parser.add_argument("--duration", type=float, default=30.0)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--batch-size", type=int, default=1024)
    run_parser.add_argument("--runtime", choices=["des", "realtime"], default="des",
                            help="execution backend (default: des)")
    run_parser.add_argument("--timescale", type=float, default=1.0,
                            help="realtime only: wall seconds per simulated second")
    run_parser.add_argument("--json", dest="json_path")

    sweep_parser = sub.add_parser("sweep", help="grid of scenarios x protocols")
    sweep_parser.add_argument("--scenarios", default="all",
                              help="comma-separated names, or 'all' (default)")
    sweep_parser.add_argument("--protocols", default="ladon-pbft,iss-pbft")
    sweep_parser.add_argument("--n", type=int, default=8)
    sweep_parser.add_argument("--duration", type=float, default=30.0)
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument("--batch-size", type=int, default=1024)
    sweep_parser.add_argument("--workers", type=int, default=1)
    sweep_parser.add_argument("--cache-dir", default=".sweep-cache")
    sweep_parser.add_argument("--no-cache", action="store_true")
    sweep_parser.add_argument("--quiet", action="store_true")
    sweep_parser.add_argument("--json", dest="json_path")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _scenario_list()
    if args.command == "run":
        return _scenario_run(args)
    return _scenario_sweep(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "scenario":
        return scenario_main(argv[1:])
    if argv and argv[0] == "adversary":
        return adversary_main(argv[1:])
    if argv and argv[0] == "run":
        return run_main(argv[1:])
    if argv and argv[0] == "fuzz":
        from repro.bench.fuzz_cli import fuzz_main

        return fuzz_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures via the sweep harness.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["list"])
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for grid experiments (1 = sequential in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        default=".sweep-cache",
        help="directory for the on-disk result cache (default: .sweep-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="run every cell even if cached"
    )
    parser.add_argument("--json", dest="json_path", help="also dump the raw result as JSON")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]
            suffix = " (sweepable)" if name in SWEEPABLE else ""
            print(f"{name:12s} {doc}{suffix}")
        print("run          one cell on a chosen backend: 'run --runtime des|realtime'")
        print("scenario     named-scenario engine: 'scenario list|run|sweep' (sweepable)")
        print("adversary    Byzantine attack catalog: 'adversary list|run'")
        print("fuzz         schedule-space fuzzer: 'fuzz run|replay|shrink'")
        return 0

    fn = EXPERIMENTS[args.experiment]
    kwargs = {}
    if args.experiment in SWEEPABLE:
        kwargs["sweep"] = SweepRunner(
            workers=args.workers,
            cache_dir=None if args.no_cache else args.cache_dir,
            progress=None if args.quiet else _progress_printer(sys.stderr),
        )
    result = fn(**kwargs)

    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, default=repr)
    _print_result(args.experiment, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
