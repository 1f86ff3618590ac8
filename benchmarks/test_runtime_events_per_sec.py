"""Micro-benchmark: per-event DES cost must not grow with in-flight depth.

The calendar queue and the GC-quiet run loop make the per-event
cost independent of how many deliveries are in flight.  The guard is the
*ratio* of the n=128 events/s (~48 k in flight) to the n=32 events/s (~8 k
in flight) measured back to back in one process, so machine speed cancels
out: ~0.5–0.6 with one binary heap, ~0.85–1.1 with a heap per bucket, and a
median of 0.97 over 19 runs with each bucket sorted once (0.91 over 14 runs
of the heap-per-bucket code alongside it).  The n=32 leg is under half a
second of work, so on a 2-core host shared with other jobs single runs
read 0.68–1.40 (0.71–1.02 for the heap-per-bucket code): the 0.75 bound
below fails now and then on such a host, at either version.

Absolute events/s, wall seconds and peak RSS are machine-dependent and are
measured by ``python -m perfbench`` (see perfbench/README.md), not asserted
here.
"""

import time

import pytest

from repro.bench.config import ExperimentCell
from repro.protocols.registry import build_system


def events_per_second(duration, n=32):
    """Events/sec of an n-replica saturated WAN ladon-pbft run."""
    cell = ExperimentCell(
        protocol="ladon-pbft", n=n, environment="wan", duration=duration, batch_size=1024
    )
    system = build_system(cell)
    start = time.perf_counter()
    system.run()
    elapsed = time.perf_counter() - start
    events = system.runtime.events_processed
    assert events > 0
    return events / elapsed, events


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
