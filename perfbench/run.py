"""The benchmark's one command.

Stand-alone (everything, human-readable, from the repository root)::

    python -m perfbench [--seed N] [--workload W ...] [--repeats K]
                        [--no-trace] [--smoke] [--out FILE]

runs the selected workloads' untraced repeats interleaved round-robin (so
machine drift spreads evenly), then one traced pass per workload, prints
every metric by name with unit, median, min, quartiles and sample count,
runs the correctness checks and exits non-zero if any run failed.

Driver form (one workload, machine-readable last line)::

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` reports the end-to-end metrics from untraced repeats sized to
about S seconds of measured work; ``--trace 1`` reports the per-layer
metrics from one untraced and one traced run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, str(ROOT))

from perfbench import metrics as M  # noqa: E402
from perfbench.trace import write_spans  # noqa: E402
from perfbench.workloads import BY_NAME, WORKLOADS, Workload, smoke, visible_cores  # noqa: E402

#: build-only children per workload, so setup_s is a median over several
#: set-ups even when the workload affords a single measured repeat
SETUP_SAMPLES = 4


# ------------------------------------------------------------------ children
def spawn_child(spec: Dict[str, Any], timeout_s: float) -> Dict[str, Any]:
    """Run one child to completion; return its record or ``{"error": why}``.

    The child leads its own session, so killing the process group on the way
    out also takes any shard workers that outlived it (timeout or crash).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    spec = dict(spec, spawned_at=time.time())
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", json.dumps(spec)],
        cwd=str(ROOT), env=env, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        _kill_group(proc.pid)
    if out is None:
        proc.communicate()
        return {"error": f"timed out after {timeout_s:g} s"}
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1] if err.strip() else "no stderr"
        return {"error": f"child exited {proc.returncode}: {tail}"}
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "child printed no result"}


def _kill_group(pgid: int) -> None:
    """SIGKILL whatever is left of the child's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return  # the usual case: everything already exited
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


# ------------------------------------------------------------------ outcomes
@dataclass
class Outcome:
    """Everything measured and checked for one workload."""

    workload: Workload
    seed: int
    skipped: Optional[str] = None
    attempted: int = 0
    failed: int = 0
    first_failure: Optional[str] = None
    #: records of the untraced repeats that passed their checks
    records: List[Dict[str, Any]] = field(default_factory=list)
    setup_samples: List[float] = field(default_factory=list)
    #: per-layer values of the traced pass (one sample each)
    traced: Dict[str, float] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)

    def spec(self, index: str, **extra: Any) -> Dict[str, Any]:
        cell = dict(self.workload.cell, seed=self.seed)
        return dict(cell=cell, run_id=f"{self.workload.name}#{index}", **extra)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = reason

    def check(self, record: Dict[str, Any], need_blocks: bool = True) -> bool:
        """Count one run; True when it passed every check."""
        self.attempted += 1
        reason = failure_reason(record, self.records[0] if self.records else None, need_blocks)
        if reason is not None:
            self.fail(reason)
        return reason is None

    def end_to_end(self) -> Dict[str, List[float]]:
        values: Dict[str, List[float]] = {}
        for metric in M.END_TO_END:
            samples = [r[metric.name] for r in self.records if metric.name in r]
            if metric.name == "setup_s":
                samples = self.setup_samples + samples
            if samples:
                values[metric.name] = samples
        return values

    def per_layer(self) -> Dict[str, List[float]]:
        values: Dict[str, List[float]] = {}
        for metric in M.PER_LAYER:
            if metric.traced:
                samples = [self.traced[metric.name]] if metric.name in self.traced else []
            else:
                samples = [r["layers"][metric.name] for r in self.records if metric.name in r["layers"]]
            if samples:
                values[metric.name] = samples
        return values


def failure_reason(
    record: Dict[str, Any], first: Optional[Dict[str, Any]], need_blocks: bool = True
) -> Optional[str]:
    """Why this run counts as failed, or None.

    ``first`` is the first good repeat of the same workload and seed: the
    simulator is deterministic, so every later run must reproduce its
    confirmed log to the last rank.
    """
    if "error" in record:
        return record["error"]
    if not record["safety_ok"]:
        return "audit reported a safety violation"
    if need_blocks:
        if record["confirmed_blocks"] == 0:
            return "confirmed zero blocks"
        if first is not None and record["digest"] != first["digest"]:
            return f"output digest {record['digest'][:12]} differs from first repeat {first['digest'][:12]}"
    return None


# ----------------------------------------------------------------- the passes
def repeat_count(workload: Workload, args: argparse.Namespace) -> int:
    if args.trace == "1":
        return 1  # the traced pass only needs one untraced run to compare with
    if args.repeats:
        return args.repeats
    if args.seconds:
        return math.ceil(args.seconds / workload.nominal_wall_s)
    return workload.repeats


def untraced_pass(outcomes: List[Outcome], args: argparse.Namespace) -> None:
    """Set-up samples, then the repeats, round-robin across workloads."""
    active = [o for o in outcomes if o.skipped is None]
    if args.trace != "1":
        for index in range(SETUP_SAMPLES):
            for o in active:
                record = spawn_child(o.spec(f"setup{index}", build_only=True), o.workload.timeout_s)
                o.attempted += 1
                if "error" in record:
                    o.fail(record["error"])
                else:
                    o.setup_samples.append(record["setup_s"])
    counts = {o.workload.name: repeat_count(o.workload, args) for o in active}
    for index in range(max(counts.values(), default=0)):
        for o in active:
            if index < counts[o.workload.name]:
                record = spawn_child(o.spec(str(index)), o.workload.timeout_s)
                if o.check(record):
                    o.records.append(record)
                    o.spans.extend(record.pop("spans"))
                _progress(o, f"repeat {index + 1}/{counts[o.workload.name]}", record)


def traced_pass(outcomes: List[Outcome], args: argparse.Namespace) -> None:
    """One profiled run per workload, plus the sharded workload's oracle check."""
    by_name = {o.workload.name: o for o in outcomes}
    for o in outcomes:
        if o.skipped is not None or not o.records:
            continue
        w = o.workload
        spec = o.spec("traced", traced=True)
        full = w.trace_duration is None
        if not full:
            spec["cell"]["duration"] = w.trace_duration
        record = spawn_child(spec, w.timeout_s)
        if o.check(record, need_blocks=full):
            o.traced = record["layers"]
            o.spans.extend(record["spans"])
            o.traced["trace.overhead_ratio"] = _overhead_ratio(record, o.records)
        _progress(o, "traced pass", record)
        if w.oracle is not None:
            oracle = by_name.get(w.oracle)
            if oracle is None or not oracle.records:
                # The oracle workload is not part of this invocation: run its
                # cell once here.  Only the traced pass pays for this.
                oracle_workload = BY_NAME[w.oracle]
                oracle = Outcome(smoke(oracle_workload) if args.smoke else oracle_workload, o.seed)
                reference = spawn_child(oracle.spec("oracle"), oracle.workload.timeout_s)
                o.attempted += 1
                if "error" in reference:
                    o.fail(f"oracle {w.oracle}: {reference['error']}")
                    continue
                oracle.records.append(reference)
            if oracle.records[0]["set_digest"] != o.records[0]["set_digest"]:
                o.fail(f"confirmed-block set differs from {w.oracle}'s")


def _overhead_ratio(traced: Dict[str, Any], untraced: List[Dict[str, Any]]) -> float:
    """Traced over untraced host time per simulated event.

    Per event because the traced pass of a long cell covers a shorter
    horizon; for full-horizon traces this is traced/untraced ``run_s``.
    """
    def per_event(record: Dict[str, Any]) -> float:
        layers = record["layers"]
        return layers.get("runtime.run_s", record["wall_s"]) / layers["sim.events"]

    return per_event(traced) / statistics.median(per_event(r) for r in untraced)


def _progress(o: Outcome, what: str, record: Dict[str, Any]) -> None:
    status = record.get("error") or f"{record['wall_s']:.2f} s"
    print(f"[{o.workload.name}] {what}: {status}", file=sys.stderr, flush=True)


# ------------------------------------------------------------------ reporting
def _row(metric: M.Metric, samples: List[float]) -> str:
    q = M.quartiles(samples)
    q1, q3 = (f"{q[0]:.6g}", f"{q[1]:.6g}") if q else ("-", "-")
    return (
        f"  {metric.name:<26} {metric.unit:<9} {metric.kind:<5} "
        f"{statistics.median(samples):>14.6g} {min(samples):>14.6g} {q1:>14} {q3:>14} {len(samples):>3}"
    )


def report(o: Outcome, show_end_to_end: bool, show_layers: bool) -> None:
    w = o.workload
    print(f"\n== {w.name}  (seed {o.seed}; {w.cell['protocol']} n={w.cell['n']} "
          f"{w.cell['duration']:g} sim-s)")
    if o.skipped is not None:
        print(f"  skipped: {o.skipped}")
        return
    print(f"  {'metric':<26} {'unit':<9} {'kind':<5} {'median':>14} {'min':>14} {'q1':>14} {'q3':>14} {'n':>3}")
    if show_end_to_end:
        values = o.end_to_end()
        for metric in M.END_TO_END:
            if metric.name in values:
                print(_row(metric, values[metric.name]))
    if show_layers:
        values = o.per_layer()
        for metric in M.PER_LAYER:
            if metric.name in values:
                print(_row(metric, values[metric.name]))
    if o.records:
        first = o.records[0]
        print(f"  latency samples per run: {first['layers']['metrics.latency_samples']} confirmed blocks")
        print(f"  output digest {first['digest']}  block-set digest {first['set_digest']}")
    print(f"  failed_runs/attempted_runs: {o.failed}/{o.attempted}"
          + (f"  first failure: {o.first_failure}" if o.first_failure else ""))


def machine_info() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": visible_cores(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def result_document(outcomes: List[Outcome], args: argparse.Namespace) -> Dict[str, Any]:
    """What ``--out`` stores: machine info and every repeat's raw values."""
    workloads = {}
    for o in outcomes:
        first = o.records[0] if o.records else {}
        workloads[o.workload.name] = {
            "cell": o.workload.cell,
            "skipped": o.skipped,
            "attempted_runs": o.attempted,
            "failed_runs": o.failed,
            "first_failure": o.first_failure,
            "digest": first.get("digest"),
            "set_digest": first.get("set_digest"),
            "end_to_end": o.end_to_end(),
            "per_layer": o.per_layer(),
        }
    return {"schema": 1, "machine": machine_info(), "seed": args.seed,
            "smoke": args.smoke, "workloads": workloads}


def last_line(outcomes: List[Outcome], end_to_end: bool, layers: bool) -> Dict[str, Any]:
    """The driver's result object; names carry the workload when there are several."""
    out: Dict[str, Any] = {}
    for o in outcomes:
        prefix = f"{o.workload.name}/" if len(outcomes) > 1 else ""
        wanted = []
        if end_to_end:
            values = o.end_to_end()
            wanted += [(m, values.get(m.name)) for m in M.END_TO_END]
        if layers:
            # A per-layer metric that does not apply to the workload
            # (shard.* on one process) reads 0; an end-to-end one never does.
            values = o.per_layer()
            wanted += [(m, values.get(m.name, [0.0])) for m in M.PER_LAYER]
        for metric, samples in wanted:
            if samples:
                out[prefix + metric.name] = {"value": statistics.median(samples), "unit": metric.unit}
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": out}


# ----------------------------------------------------------------------- main
def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(BY_NAME),
                        help="run only this workload (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="feeds ExperimentCell.seed (default 0)")
    parser.add_argument("--seconds", type=float,
                        help="measure at least this many seconds per workload: repeats are sized by the "
                             "table's nominal walls")
    parser.add_argument("--repeats", type=int, help="untraced repeats per workload (overrides --seconds)")
    parser.add_argument("--trace", choices=["0", "1"],
                        help="0: untraced repeats only, end-to-end metrics; 1: one untraced and one "
                             "traced run, per-layer metrics; omitted: both")
    parser.add_argument("--no-trace", dest="trace", action="store_const", const="0",
                        help="same as --trace 0")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every cell (n=8, a few sim-s, one repeat): the self-test size")
    parser.add_argument("--out", help="write machine info and every repeat's raw values as JSON; "
                                      "spans go next to it as <out>.spans.jsonl")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    selected = [BY_NAME[name] for name in args.workload] if args.workload else list(WORKLOADS)
    if args.smoke:
        selected = [smoke(w) for w in selected]
    cores = visible_cores()
    outcomes = [Outcome(w, args.seed) for w in selected]
    for o in outcomes:
        if cores < o.workload.min_cores:
            o.skipped = f"needs {o.workload.min_cores} visible cores, found {cores}"

    untraced_pass(outcomes, args)
    if args.trace != "0":
        traced_pass(outcomes, args)

    show_end_to_end, show_layers = args.trace != "1", args.trace != "0"
    for o in outcomes:
        report(o, show_end_to_end, show_layers)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result_document(outcomes, args), fh, indent=1)
        write_spans(args.out + ".spans.jsonl", [s for o in outcomes for s in o.spans])
    ran = [o for o in outcomes if o.skipped is None]
    summary = last_line(ran, show_end_to_end, show_layers)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
