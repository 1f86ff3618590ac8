"""Reachability audit: which ``src/repro`` functions does no CLI run call?

Usage (from the repository root; no ``PYTHONPATH`` needed)::

    python tools/reachability_audit.py

It prints the package table and the never-called list, then runs the check
below and exits 1 if it fails.  It runs one invocation per CPU it may use.

**Method.**  Each invocation runs in a fresh interpreter (this script, in
``--child`` mode, with ``src`` on ``sys.path`` and a temporary working
directory, so sweep caches and artifacts land nowhere).  The child installs
``sys.setprofile`` and ``threading.setprofile`` before it calls
``repro.bench.__main__.main(argv)`` and records ``(co_filename,
co_firstlineno)`` of every ``call`` event under ``src/repro/``.  The union
over all invocations is compared with an AST walk of ``src/repro/``: every
``def``/``async def``, methods and nested functions included, keyed by its
first line -- the first decorator's line when there is one, which is what
``co_firstlineno`` reports.  A function is *never called* when its key is
not in the union; its lines run from that first line to ``end_lineno``.

**Invocations** (34; ``cell`` = ``--n 8 --duration 5 --batch-size 64``):
``run --protocol P cell`` for each of the 8 registry protocols; ``scenario
run S --n 8 --duration 20 --batch-size 64`` for each of the 14 scenarios;
``adversary run A --n 8 --duration 10 --batch-size 64`` for every named
adversary but ``equivocation-colluding``, which runs as ``--expect-unsafe
--n 4 --duration 5``; ``fuzz replay tests/corpus/*.json``; ``fuzz run
--seeds 4 --duration 4 --batch-size 64``, with and without ``--no-shrink
--probability 0.5``; ``run --runtime realtime --timescale 0.1 cell``;
``fig2a``; ``appendix-a``; and one 2-shard ``run_cell`` at n=8.

**What it does not run.**  Neither fig5-fig10, ``table1``/``table2``,
``fuzz shrink`` nor the shard workers (child processes of the sharded
runtime, which are not traced).  So a never-called entry is a lead to grep,
not a verdict: ``CampaignReport.ok``, ``cell_breaks_safety`` and
``ScenarioSpec.describe`` are reached by those paths.

**Check.**  After the list, the script exits 1 when a never-called
function in one of :data:`CHECKED_PACKAGES` is missing from
:data:`CLASSIFIED`, or when a :data:`CLASSIFIED` entry names no function.
Each entry says why the function stays: it is abstract, a named tool
reaches it, a CLI path outside the invocations reaches it, or it is a test
handle kept on purpose.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
PACKAGE_ROOT = os.path.join(SRC, "repro")

#: packages whose never-called functions must each be classified
CHECKED_PACKAGES = ("adversary", "core", "metrics", "protocols", "runtime", "sim")

#: the four reasons a never-called function stays
ABSTRACT = "abstract"  # an interface method or hook that subclasses override
TOOL = "tool"  # reached by a named tool outside the invocations
CLI = "cli"  # reached by a CLI path outside the invocations
TEST_HANDLE = "test handle"  # kept on purpose for the tests that read it

_DIFFERENTIAL = "the orderers' differential tests compare state through it"
_PERFBENCH = "perfbench/child.py reads it"
_TRACE = "the determinism tests read the trace through it"
_UNIFORM = ("the sim tests' latency model and Network's default; every system "
            "passes a topology model")

#: ``module:qualname`` -> (kind, why it stays although no invocation calls it)
CLASSIFIED: Dict[str, Tuple[str, str]] = {
    # adversary
    "repro.adversary.attacks:Attack.describe": (ABSTRACT, "every catalog attack overrides it"),
    "repro.adversary.registry:available_adversaries": (
        CLI, "`adversary list` and the unknown-adversary error"),
    "repro.adversary.spec:AdversarySpec.describe": (
        TOOL, "examples/byzantine_attacks.py; `adversary list` for a spec with no description"),
    "repro.adversary.spec:AdversarySpec.merge": (
        CLI, "`run --scenario byz-rank --adversary equivocation`"),
    # core
    "repro.core.block:ordering_key": (
        TEST_HANDLE, "the order of Sec. 4.2; the orderers inline it, the reference "
                     "orderer and the property tests sort by it"),
    "repro.core.ordering:ConfirmationBar.admits": (TEST_HANDLE, "tests/reference_orderer.py"),
    "repro.core.ordering:GlobalOrderer.add_partially_committed": (ABSTRACT, "each orderer"),
    "repro.core.ordering:GlobalOrderer.pending_count": (ABSTRACT, "each orderer"),
    "repro.core.ordering:DynamicOrderer.pending_count": (TOOL, _PERFBENCH),
    "repro.core.predetermined:PredeterminedOrderer.pending_count": (TOOL, _PERFBENCH),
    "repro.core.dqbft_ordering:DQBFTOrderer.pending_count": (TOOL, _PERFBENCH),
    "repro.core.ordering:DynamicOrderer.current_bar": (TEST_HANDLE, _DIFFERENTIAL),
    "repro.core.ordering:DynamicOrderer.unconfirmed_blocks": (TEST_HANDLE, _DIFFERENTIAL),
    "repro.core.dqbft_ordering:DQBFTOrderer.undecided_blocks": (TEST_HANDLE, _DIFFERENTIAL),
    # metrics
    "repro.metrics.auditor:audit_system": (TOOL, _PERFBENCH),
    "repro.metrics.resources:ResourceModel.total_crypto_ops": (TOOL, _PERFBENCH),
    # protocols
    "repro.protocols.base:MultiBFTReplica.build_orderer": (ABSTRACT, "each replica class"),
    "repro.protocols.dqbft:DQBFTReplica._on_view_installed": (
        CLI, "a DQBFT view change, e.g. `fuzz run --protocol dqbft --seeds 3`"),
    "repro.protocols.registry:available_protocols": (CLI, "the unknown-protocol error"),
    # runtime: the seam's interface, then what no invocation reaches
    **{f"repro.runtime.base:Runtime.{name}": (ABSTRACT, "the runtime seam")
       for name in ("now", "schedule_at", "schedule_after", "register", "send", "multicast",
                    "registered_nodes", "set_partition", "heal_partition", "partitioned",
                    "set_latency_scale", "set_drop_probability", "drop_probability", "run")},
    "repro.runtime:__getattr__": (
        TEST_HANDLE, "the lazy export repro.runtime.RealtimeRuntime (a DES run imports "
                     "no asyncio); tests and benchmarks import it"),
    "repro.runtime.des:DESRuntime.step": (TEST_HANDLE, "single-stepping the simulator"),
    "repro.runtime.des:DESRuntime.partitioned": (TEST_HANDLE, "partition tests"),
    "repro.runtime.des:DESRuntime.events_processed": (TOOL, _PERFBENCH),
    "repro.runtime.realtime:RealtimeRuntime.schedule_at": (
        CLI, "a dynamics timeline, e.g. `run --runtime realtime --scenario lossy-lan`"),
    "repro.runtime.realtime:RealtimeRuntime.drop_probability": (
        CLI, "a loss burst, e.g. `run --runtime realtime --scenario lossy-lan`"),
    "repro.runtime.realtime:RealtimeRuntime.partitioned": (TEST_HANDLE, "partition tests"),
    "repro.runtime.sharded:ShardWorkerRuntime.__init__": (TOOL, "the shard worker"),
    "repro.runtime.sharded:ShardedDESRuntime.events_processed": (TOOL, _PERFBENCH),
    "repro.runtime.sharded:ShardedDESRuntime.total_peak_rss_bytes": (TOOL, _PERFBENCH),
    "repro.runtime.sharded:ShardedDESRuntime.worker_peak_rss_bytes": (
        TOOL, "total_peak_rss_bytes, which perfbench/child.py reads"),
    # sim
    "repro.sim.clock:VirtualClock.now": (TEST_HANDLE, "the simulator reads `_now` inline"),
    "repro.sim.clock:VirtualClock.__repr__": (TEST_HANDLE, "assertion output"),
    "repro.sim.events:Event.__repr__": (TEST_HANDLE, "assertion output"),
    "repro.sim.events:EventQueue._pop_entry": (TEST_HANDLE, "Simulator.step and EventQueue.pop"),
    "repro.sim.events:EventQueue.pop": (TEST_HANDLE, "the queue's differential tests"),
    "repro.sim.events:EventQueue.peek_time": (TOOL, "the shard worker's idle skip"),
    "repro.sim.events:EventQueue.__len__": (TEST_HANDLE, "the queue tests read the live count"),
    "repro.sim.events:EventQueue.__bool__": (TEST_HANDLE, "the queue tests read the live count"),
    **{f"repro.sim.latency:LatencyModel.{name}": (ABSTRACT, "each latency model")
       for name in ("delay", "min_delay", "region_of", "multicast_profile")},
    **{f"repro.sim.latency:UniformLatency.{name}": (TEST_HANDLE, _UNIFORM)
       for name in ("__init__", "delay", "min_delay", "region_of", "multicast_profile")},
    "repro.sim.network:Network._unregistered": (
        TEST_HANDLE, "the handler row's slot for an id with no handler; no system sends "
                     "to one (TestUnregisteredDrop)"),
    "repro.sim.network:Network.partitioned": (TEST_HANDLE, "partition tests"),
    "repro.sim.node:Node._receive": (
        TEST_HANDLE, "delivery for non-replica nodes: every replica overrides it, the "
                     "sim tests' nodes use it"),
    "repro.sim.node:Node.on_message": (ABSTRACT, "the sim tests' nodes"),
    "repro.sim.node:Node.on_recover": (ABSTRACT, "MultiBFTReplica overrides the hook"),
    "repro.sim.node:Node.start": (ABSTRACT, "MultiBFTReplica overrides the hook"),
    "repro.sim.simulator:Simulator.events_processed": (TOOL, _PERFBENCH + " (via the runtime)"),
    "repro.sim.simulator:Simulator.step": (TEST_HANDLE, "single-stepping the simulator"),
    "repro.sim.trace:TraceRecorder.by_category": (TEST_HANDLE, _TRACE),
    "repro.sim.trace:TraceRecorder.digest": (TEST_HANDLE, _TRACE),
    "repro.sim.trace:TraceRecorder.__iter__": (TEST_HANDLE, _TRACE),
    "repro.sim.trace:TraceRecorder.__len__": (TEST_HANDLE, _TRACE),
    "repro.sim.trace:event_key": (
        CLI, "`fuzz replay` of a diverging artifact, e.g. tests/planted/*.json"),
    "repro.sim.trace:trace_from_jsonable": (
        CLI, "`fuzz replay` of a diverging artifact, e.g. tests/planted/*.json"),
}

_CELL = ("--n", "8", "--duration", "5", "--batch-size", "64")
_SHARD_RUN = "shard-run"


@dataclass(frozen=True)
class Function:
    """One ``def`` of the inventory."""

    path: str  # relative to ``src``
    module: str
    qualname: str
    first: int  # the first decorator's line, else the ``def`` line
    end: int

    @property
    def name(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def package(self) -> str:
        """``repro.<package>`` (a package's ``__init__`` included); "" for ``repro`` itself."""
        parts = self.module.split(".")
        return parts[1] if len(parts) > 1 else ""

    @property
    def lines(self) -> int:
        return self.end - self.first + 1


def functions_in(source: str, path: str, module: str) -> List[Function]:
    """Every function of one module, methods and nested functions included."""
    found: List[Function] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                found.append(Function(path, module, qualname, first, child.end_lineno))
                visit(child, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source, filename=path), "")
    return found


def inventory(src: str = SRC) -> List[Function]:
    """Every function under ``src/repro``, in path and line order."""
    found: List[Function] = []
    for directory, subdirs, files in os.walk(os.path.join(src, "repro")):
        subdirs.sort()
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            full = os.path.join(directory, filename)
            path = os.path.relpath(full, src)
            module = path[: -len(".py")].replace(os.sep, ".")
            if module.endswith(".__init__"):
                module = module[: -len(".__init__")]
            with open(full, encoding="utf-8") as handle:
                found.extend(functions_in(handle.read(), path, module))
    return found


def invocations(repo: str = REPO) -> List[Tuple[str, ...]]:
    """The 34 argument vectors the audit runs (see the module docstring)."""
    sys.path.insert(0, os.path.join(repo, "src"))
    from repro.adversary.registry import available_adversaries
    from repro.protocols.registry import available_protocols
    from repro.scenario.registry import available_scenarios

    corpus = os.path.join(repo, "tests", "corpus")
    runs: List[Tuple[str, ...]] = []
    for protocol in available_protocols():
        runs.append(("run", "--protocol", protocol) + _CELL)
    for scenario in available_scenarios():
        runs.append(("scenario", "run", scenario, "--n", "8", "--duration", "20",
                     "--batch-size", "64"))
    for adversary in available_adversaries():
        if adversary == "equivocation-colluding":
            runs.append(("adversary", "run", adversary, "--expect-unsafe", "--n", "4",
                         "--duration", "5", "--batch-size", "64"))
        else:
            runs.append(("adversary", "run", adversary, "--n", "8", "--duration", "10",
                         "--batch-size", "64"))
    runs.append(("fuzz", "replay") + tuple(
        os.path.join(corpus, name) for name in sorted(os.listdir(corpus)) if name.endswith(".json")
    ))
    fuzz = ("fuzz", "run", "--seeds", "4", "--duration", "4", "--batch-size", "64")
    runs.append(fuzz)
    runs.append(fuzz + ("--no-shrink", "--probability", "0.5"))
    runs.append(("run", "--runtime", "realtime", "--timescale", "0.1") + _CELL)
    runs.append(("fig2a",))
    runs.append(("appendix-a",))
    runs.append((_SHARD_RUN,))
    return runs


# ------------------------------------------------------------------ child
def _child(out_path: str, argv: Sequence[str]) -> None:
    """Run one invocation under the profiler and write the called keys."""
    import threading

    sys.path.insert(0, SRC)
    codes: Set[object] = set()

    def profile(frame, event, _arg) -> None:
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    threading.setprofile(profile)
    status = 0
    try:
        if list(argv) == [_SHARD_RUN]:
            from repro.bench.config import ExperimentCell
            from repro.bench.runner import run_cell

            run_cell(ExperimentCell(protocol="ladon-pbft", n=8, duration=3.0,
                                    batch_size=64, runtime="sharded", shards=2))
        else:
            from repro.bench.__main__ import main

            status = main(list(argv))
    except SystemExit as exit_:
        status = exit_.code
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    prefix = PACKAGE_ROOT + os.sep
    called = sorted(
        {(os.path.relpath(code.co_filename, SRC), code.co_firstlineno)
         for code in codes if code.co_filename.startswith(prefix)}
    )
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"status": status, "called": called}, handle)


def _run_one(argv: Sequence[str]) -> Tuple[Set[Tuple[str, int]], object]:
    with tempfile.TemporaryDirectory(prefix="reachability-") as workdir:
        out_path = os.path.join(workdir, "called.json")
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", out_path, "--", *argv],
            cwd=workdir, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if child.returncode != 0:
            raise RuntimeError(
                f"audit child for {' '.join(argv)!r} exited {child.returncode}:\n"
                + child.stderr[-2000:]
            )
        with open(out_path, encoding="utf-8") as handle:
            result = json.load(handle)
    return {tuple(key) for key in result["called"]}, result["status"]


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def called_keys(runs: Iterable[Sequence[str]], jobs: int = 1,
                log=lambda message: None) -> Set[Tuple[str, int]]:
    """The union of called ``(path, first line)`` keys over ``runs``."""
    called: Set[Tuple[str, int]] = set()
    runs = list(runs)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for index, (argv, (keys, status)) in enumerate(
            zip(runs, pool.map(_run_one, runs)), start=1
        ):
            log(f"[{index}/{len(runs)}] exit {status}: {' '.join(argv)[:100]}")
            called |= keys
    return called


# ----------------------------------------------------------------- report
def never_called(functions: Iterable[Function], called: Set[Tuple[str, int]]) -> List[Function]:
    return [f for f in functions if (f.path, f.first) not in called]


def package_table(functions: Sequence[Function], missed: Sequence[Function]) -> str:
    rows: Dict[str, List[int]] = {}
    for f in functions:
        row = rows.setdefault(f.package, [0, 0, 0, 0])
        row[0] += 1
        row[2] += f.lines
    for f in missed:
        row = rows[f.package]
        row[1] += 1
        row[3] += f.lines
    lines = [
        "| package | functions | never called | function lines | never-called lines |",
        "|---|---:|---:|---:|---:|",
    ]
    for package in sorted(rows):
        a, b, c, d = rows[package]
        lines.append(f"| `{package or '(root)'}` | {a} | {b} | {c} | {d} |")
    totals = [sum(row[i] for row in rows.values()) for i in range(4)]
    lines.append("| **total** | {} | {} | {} | {} |".format(*totals))
    return "\n".join(lines)


def check(functions: Sequence[Function], missed: Sequence[Function],
          classified: Dict[str, Tuple[str, str]] = CLASSIFIED,
          packages: Sequence[str] = CHECKED_PACKAGES) -> List[str]:
    """Problems that fail the check (empty when the tree passes)."""
    names = {f.name for f in functions}
    problems = [
        f"unclassified never-called function: {f.name} ({f.path}:{f.first})"
        for f in missed
        if f.package in packages and f.name not in classified
    ]
    problems += [
        f"classification entry names no function: {name}"
        for name in sorted(classified) if name not in names
    ]
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", nargs=1, metavar="OUT", help=argparse.SUPPRESS)
    parser.add_argument("rest", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args.child[0], args.rest)
        return 0
    functions = inventory()
    runs = invocations()
    called = called_keys(runs, jobs=_cpus(), log=lambda m: print(m, file=sys.stderr))
    missed = never_called(functions, called)
    print(f"{len(runs)} invocations\n")
    print(package_table(functions, missed))
    print("\nnever called:")
    for f in missed:
        kind = CLASSIFIED.get(f.name, ("", ""))[0]
        print(f"  {f.path}:{f.first}  {f.qualname}  ({f.lines} lines)"
              + (f"  [{kind}]" if kind else ""))
    problems = check(functions, missed)
    for problem in problems:
        print(f"FAIL {problem}")
    if problems:
        return 1
    print("\ncheck: every never-called function in "
          f"{', '.join(CHECKED_PACKAGES)} is classified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
