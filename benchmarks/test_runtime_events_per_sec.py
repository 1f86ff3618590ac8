"""Micro-benchmark: DES hot-path events/sec on the saturated WAN cells.

Three overhauls stack here; the first two are measured on the n=32 cell:

* **PR 4** (DES layer): tuple-keyed heap entries, ``__slots__`` events,
  closure-free deliveries, fused multicast fan-out, counter-based resource
  accounting — 57.3k → ~163k events/s on the reference machine.
* **PR 5** (protocol layer): flyweight messages with construction-time
  ``size_bytes``, replica-level route-table dispatch (no isinstance chains,
  no per-instance hop), bitmask quorum tracking with interned int vote
  keys, dispatch-site crypto accounting, the incremental O(log m)
  confirmation bar, direct-to-heap delivery scheduling with inlined
  latency rows, and commit-time state GC — ~163k → ~260k events/s
  (~1.6x; BENCH_pr5.json holds the measured trajectory).  Profiles show
  the remaining wall time is dominated by the irreducible per-event DES
  transport work (heap pop, delivery dispatch, per-receiver scheduling
  arithmetic), not the protocol layer.
* **PR 13** (event queue): the two-tier calendar queue and the GC-quiet
  run loop make the per-event cost independent of how many deliveries are
  in flight.  At n=32 (~8 k in flight) that is worth a few percent — inside
  run-to-run noise, so the n=32 floors below cannot tell the two queue
  designs apart and are unchanged.  The guard that can is the *ratio* of
  the n=128 rate (~48 k in flight) to the n=32 rate measured back to back
  on the same machine: ~0.5–0.6 with one binary heap, ~0.85–1.1 now.

Absolute wall-clock floors are hardware-dependent, so every guard scales
its threshold by a measured interpreter-speed calibration (a fixed pure
Python loop timed on the reference machine): a slower CI box gets a
proportionally lower floor instead of a spurious failure, while a real hot
path regression still trips the assert on any machine.
"""

import time

import pytest

from repro.bench.config import ExperimentCell
from repro.protocols.registry import build_system

#: events/sec of the n=32 saturated cell before the PR-4 overhaul,
#: measured on the reference machine (see BENCH_pr4.json)
BASELINE_EPS_PRE_PR4 = 57_325
#: events/sec after PR 4 (the baseline PR 5 improves on; BENCH_pr4.json)
BASELINE_EPS_PR4 = 163_186
#: wall seconds the calibration loop takes on the same reference machine
#: (timed inside the function below — function-local loops run ~2x faster
#: than the same statements at module scope)
REFERENCE_CALIBRATION_SECONDS = 0.065


def interpreter_speed_factor():
    """This machine's speed relative to the reference machine (1.0 = same).

    Times a fixed pure-Python accumulation loop (best of 3) — the DES hot
    path is interpreter-bound, so this tracks the relevant axis.
    """
    best = None
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(2_000_000):
            x += i
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return REFERENCE_CALIBRATION_SECONDS / best


def events_per_second(duration, n=32):
    """Events/sec of an n-replica saturated WAN ladon-pbft run."""
    cell = ExperimentCell(
        protocol="ladon-pbft", n=n, environment="wan", duration=duration, batch_size=1024
    )
    system = build_system(cell.to_system_config())
    start = time.perf_counter()
    system.run()
    elapsed = time.perf_counter() - start
    events = system.runtime.events_processed
    assert events > 0
    return events / elapsed, events


def test_des_hot_path_sustains_baseline_throughput():
    """Tier-1 guard: a short run must beat PR 4's post-overhaul rate with
    margin (floor: 1.15x the PR-4 163k, machine-calibrated — the measured
    PR-5 rate is ~1.6x, so this catches protocol-layer regressions while
    riding out scheduler noise)."""
    factor = interpreter_speed_factor()
    floor = 1.15 * BASELINE_EPS_PR4 * factor
    eps, events = events_per_second(duration=2.0)
    assert eps > floor, (
        f"protocol hot path regressed: {eps:,.0f} events/s < floor {floor:,.0f} "
        f"(machine speed factor {factor:.2f}, {events} events)"
    )


@pytest.mark.slow
def test_protocol_hot_path_events_per_sec_full():
    """The PR-5 measurement run: the full 10-simulated-second n=32 saturated
    cell must hold >=1.35x PR 4's 163k events/s (machine-calibrated;
    measured best ~1.6x, recorded in BENCH_pr5.json) — and, transitively,
    >=3.8x the original pre-PR-4 57.3k."""
    factor = interpreter_speed_factor()
    eps, events = events_per_second(duration=10.0)
    print(f"\nn=32 saturated hot path: {events:,} events at {eps:,.0f} events/s "
          f"(machine speed factor {factor:.2f})")
    assert eps >= 1.35 * BASELINE_EPS_PR4 * factor, (
        f"expected >=1.35x the {BASELINE_EPS_PR4:,} PR-4 baseline, got {eps:,.0f}"
    )
    assert eps >= 3.8 * BASELINE_EPS_PRE_PR4 * factor


@pytest.mark.slow
def test_per_event_cost_does_not_grow_with_in_flight_depth():
    """The PR-13 guard: n=128 keeps ~48 k deliveries in flight against ~8 k
    at n=32, and must still process events at >=0.75x the n=32 rate.  Both
    rates come from this process, so machine speed cancels out; a slide back
    to a single deep heap (or to a collector that re-walks the in-flight
    entries) measures ~0.5-0.6 and fails on any machine."""
    shallow, _ = events_per_second(duration=3.0)
    deep, events = events_per_second(duration=3.0, n=128)
    print(f"\nn=128: {events:,} events at {deep:,.0f} events/s; "
          f"n=32: {shallow:,.0f} events/s; ratio {deep / shallow:.2f}")
    assert deep >= 0.75 * shallow, (
        f"per-event cost grows with in-flight depth again: n=128 runs at "
        f"{deep:,.0f} events/s, {deep / shallow:.2f}x the n=32 rate {shallow:,.0f}"
    )
