"""Run the same Multi-BFT system on both execution backends.

The protocol stack is sans-I/O: replicas talk to a ``Runtime`` interface and
never to the simulator or the network directly, so the identical state
machines run on the discrete-event backend (virtual time, deterministic) and
on the asyncio realtime backend (wall clock, real sleeps, artificial latency
from the same topology).  This example runs a small LAN deployment on both
and shows that they confirm the same block sequence.

``REPRO_FAST=1`` (set by the docs smoke test) shrinks the simulated duration.
"""

import os

from repro.bench.config import ExperimentCell
from repro.protocols.registry import build_system

FAST = os.environ.get("REPRO_FAST") == "1"
DURATION = 1.5 if FAST else 5.0
#: wall seconds per simulated second for the realtime run
TIME_SCALE = 0.4 if FAST else 1.0


def run(runtime_kind: str):
    cell = ExperimentCell(
        protocol="ladon-pbft",
        n=4,
        duration=DURATION,
        environment="lan",
        total_block_rate=16.0,
        batch_size=256,
        runtime=runtime_kind,
        realtime_timescale=TIME_SCALE,
    )
    result = build_system(cell).run()
    sequence = [(c.block.instance, c.block.rank) for c in result.confirmed]
    return result, sequence


def main() -> None:
    des_result, des_sequence = run("des")
    print(f"DES      : {des_result.metrics.confirmed_blocks} blocks, "
          f"{des_result.metrics.throughput_tps:,.0f} tx/s, "
          f"audit={'SAFE' if des_result.audit.safety_ok else 'UNSAFE'}")

    realtime_result, realtime_sequence = run("realtime")
    print(f"realtime : {realtime_result.metrics.confirmed_blocks} blocks, "
          f"{realtime_result.metrics.throughput_tps:,.0f} tx/s, "
          f"audit={'SAFE' if realtime_result.audit.safety_ok else 'UNSAFE'}")

    overlap = min(len(des_sequence), len(realtime_sequence))
    agree = des_sequence[:overlap] == realtime_sequence[:overlap]
    print(f"confirmed sequences agree on the common prefix ({overlap} blocks): {agree}")
    if not agree:
        # Wall-clock load can reorder realtime timers against message
        # deliveries, so prefix divergence here is informational; the strict
        # (load-controlled) check is the slow-marked equivalence test in
        # tests/test_runtime.py.
        print("note: divergence usually means the machine was busy during "
              "the wall-clock run; see tests/test_runtime.py for the "
              "controlled equivalence check")
    if not (des_result.audit.safety_ok and realtime_result.audit.safety_ok):
        raise SystemExit("audit failure on an honest run")
    if min(len(des_sequence), len(realtime_sequence)) == 0:
        raise SystemExit("a backend confirmed no blocks at all")


if __name__ == "__main__":
    main()
