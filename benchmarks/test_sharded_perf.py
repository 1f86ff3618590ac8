"""Benchmark guards for the sharded conservative-parallel DES (PR 9).

The sharded backend's headline is wall-clock scaling on multi-core
machines: at n=128 the single-process DES spends all its time in one
interpreter, while four workers each simulate 32 replicas and only meet at
lookahead barriers (~40 ms of simulated time apart in the WAN, hundreds of
simulated events per shard per window).

Speedup is a *hardware property*: on a single-core box the workers
serialize, so the barrier + IPC cost is all overhead (short runs pay
~1.5x for process startup; longer runs amortize it, and the smaller
per-shard event heaps roughly break even — PR 9 measured n=128 at
32.4 s sharded vs 33.8 s single on one core).  The speedup
guard therefore only arms when the machine actually exposes enough
cores; everywhere else it degrades to a bounded-overhead sanity check so
CI on small runners still exercises the whole code path without
asserting physics it cannot observe.
"""

import os
import time

import pytest

from repro.bench.config import ExperimentCell
from repro.protocols.registry import build_system


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def run_wall_seconds(n: int, duration: float, shards: int = 1, seed: int = 0):
    """Wall time and result of one saturated WAN ladon-pbft cell."""
    cell = ExperimentCell(
        protocol="ladon-pbft",
        n=n,
        environment="wan",
        duration=duration,
        batch_size=256,
        seed=seed,
        runtime="sharded" if shards > 1 else "des",
        shards=shards,
    )
    system = build_system(cell)
    start = time.perf_counter()
    result = system.run()
    return time.perf_counter() - start, result


def test_two_shard_smoke_n64():
    """Tier-1 guard: the 2-shard n=64 cell completes, confirms blocks, and
    stays within a bounded overhead of the single-process run.

    The n=64 WAN proposal interval is n/16 = 4 s, so the duration must
    exceed it for any block to confirm.  The overhead bound (4x) is loose
    on purpose: on one core the sharded run pays IPC + barrier cost with
    zero parallelism (~1.5x measured), and CI boxes add scheduler noise.
    """
    wall_single, single = run_wall_seconds(n=64, duration=6.0)
    wall_sharded, sharded = run_wall_seconds(n=64, duration=6.0, shards=2)
    assert len(sharded.confirmed) > 0
    assert len(sharded.confirmed) == len(single.confirmed)
    assert sharded.audit.safety_ok and single.audit.safety_ok
    assert sharded.metrics.extra.get("sync_min_margin_ms", 0.0) >= 0.0
    assert wall_sharded < 4.0 * wall_single + 2.0, (
        f"sharded overhead blew past the bound: {wall_sharded:.2f}s vs "
        f"{wall_single:.2f}s single ({available_cores()} cores)"
    )


@pytest.mark.slow
def test_sharded_n128_scaling():
    """The acceptance measurement: sharded n=128 on >= 4 workers.

    On a machine with >= 4 usable cores the 4-shard run must finish in at
    most half the single-process wall time (the >= 2x speedup headline).
    With fewer cores there is no parallel hardware to claim the speedup
    from, so the guard degrades to completion + equivalence-grade checks;
    the measured speed-up is ``wall_s`` of ``pbft-wan-n128-shard2`` against
    ``pbft-wan-n128`` in ``python -m perfbench``.
    """
    cores = available_cores()
    wall_single, single = run_wall_seconds(n=128, duration=10.0)
    wall_sharded, sharded = run_wall_seconds(n=128, duration=10.0, shards=4)
    print(
        f"\nn=128: single {wall_single:.2f}s vs 4-shard {wall_sharded:.2f}s "
        f"on {cores} cores; confirmed {len(single.confirmed)}/{len(sharded.confirmed)}"
    )
    assert len(sharded.confirmed) == len(single.confirmed)
    assert sharded.audit.safety_ok
    if cores >= 4:
        assert wall_sharded <= 0.5 * wall_single, (
            f"sharded n=128 did not reach 2x on {cores} cores: "
            f"{wall_sharded:.2f}s vs {wall_single:.2f}s"
        )
    else:
        pytest.skip(
            f"only {cores} core(s) visible: speedup is unobservable; "
            f"ran both backends (single {wall_single:.2f}s, "
            f"4-shard {wall_sharded:.2f}s) and checked equivalence"
        )


@pytest.mark.slow
def test_sharded_n512_runs_within_budget():
    """n=512 on 8 shards is *runnable*: a 2-simulated-second slice completes
    and confirms nothing only because the n=512 proposal interval (32 s)
    exceeds the slice — the budget note in EXPERIMENTS.md documents the
    full-interval cost.  This guards start-up, partitioning, barrier
    rounds, and merge at the extreme scale without paying the full run."""
    wall, result = run_wall_seconds(n=512, duration=2.0, shards=8)
    assert result.metrics.extra["shards"] == 8.0
    assert result.metrics.extra["sync_rounds"] > 0
    print(f"\nn=512 x 8 shards, 2 simulated seconds: {wall:.1f}s wall")
