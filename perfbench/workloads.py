"""The benchmark's workloads, as one declarative table.

Every workload is saturated traffic: each proposal cuts a full 1024-tx
batch, so there is no host-side open or closed loop — the host metric is
work per second at a stated input size.  ``cell`` holds
:class:`repro.bench.config.ExperimentCell` fields; the seed is added at run
time from ``--seed``.  The walls in ``nominal_wall_s`` were measured at the
commit that added the benchmark on a 2-core box and are for sizing only
(repeat counts under ``--seconds``, timeouts); they are not a baseline.

Never change ``n``, the protocol or the runtime of a named workload: later
results would stop being comparable.  To fit a time cap, cut repeats or the
traced horizon instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple


#: ``run_seconds`` of BENCHMARK.json: the measured time the driver asks one
#: run for, which :func:`perfbench.run.repeat_count` turns into repeats
RUN_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    #: one line: why this workload is in the benchmark
    why: str
    #: ``ExperimentCell`` keyword arguments (without the seed)
    cell: Dict[str, Any]
    #: untraced repeats of a stand-alone run (``python -m perfbench``)
    repeats: int
    #: seconds one repeat measured at the defining commit (sizing only)
    nominal_wall_s: float
    #: a child (and its shard workers) is killed after this many seconds
    timeout_s: float
    #: visible cores needed; with fewer the workload is skipped, not failed
    min_cores: int = 1
    #: simulated horizon of the traced (cProfile) pass; None = the cell's own
    trace_duration: Optional[float] = None
    #: workload whose confirmed-block *set* this one's must equal
    oracle: Optional[str] = None


_PBFT_N128 = dict(
    protocol="ladon-pbft", n=128, environment="wan", duration=10.0, batch_size=1024
)

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="pbft-wan-n32",
        why="Canonical paper cell at the events/s peak, 40 sim-s to steady state "
        "(epochs, checkpoints, GC, orderer drain); time splits sim/consensus/protocols.",
        cell=dict(
            protocol="ladon-pbft", n=32, environment="wan", duration=40.0, batch_size=1024
        ),
        repeats=5,
        nominal_wall_s=7.0,
        timeout_s=90.0,
    ),
    Workload(
        name="pbft-wan-n128",
        why="Scale cell: 128-wide fan-out, deep event heap, n^2 instance construction; "
        "sim layer dominates, core/metrics ~1%, so an orderer change must not move it.",
        cell=_PBFT_N128,
        repeats=3,
        nominal_wall_s=30.0,
        timeout_s=150.0,
        # Under cProfile the full cell takes ~100 s; 3 sim-s (1.3 M events)
        # gives the same layer shares within the per-run time cap.
        trace_duration=3.0,
    ),
    Workload(
        name="pbft-wan-n128-shard2",
        why="Same cell on the sharded runtime, 2 workers: the only workload where "
        "barriers, pickling and pipes do work; wall_s vs pbft-wan-n128 is the shard speed-up.",
        cell=dict(_PBFT_N128, runtime="sharded", shards=2, shard_strategy="affine"),
        repeats=3,
        nominal_wall_s=17.0,
        timeout_s=150.0,
        min_cores=2,
        oracle="pbft-wan-n128",
    ),
    Workload(
        name="hotstuff-straggler-wan-n64",
        why="Chained linear consensus with a 10x straggler: few heavy events and a real "
        "orderer backlog, so consensus/core/metrics dominate and the event heap does not.",
        # Do not lengthen past 200 sim-s: the cell stalls at the epoch
        # boundary after that.
        cell=dict(
            protocol="ladon-hotstuff", n=64, stragglers=1, straggler_slowdown=10.0,
            environment="wan", duration=200.0, batch_size=1024,
        ),
        repeats=5,
        nominal_wall_s=10.0,
        timeout_s=120.0,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

#: simulated seconds of the shrunk cells; long enough that every one of them
#: confirms blocks (the straggler's first block bounds the HotStuff cell)
_SMOKE_DURATION = {"ladon-pbft": 4.0, "ladon-hotstuff": 30.0}


def smoke(workload: Workload) -> Workload:
    """The self-test shrink: n=8, a few sim-s, one repeat, same shape."""
    cell = dict(workload.cell, n=8, duration=_SMOKE_DURATION[workload.cell["protocol"]])
    # nominal_wall_s=60 (the largest --seconds) keeps it at one repeat under --seconds too
    return replace(
        workload, cell=cell, repeats=1, nominal_wall_s=60.0, timeout_s=60.0,
        trace_duration=None,
    )


def visible_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1
