#!/usr/bin/env python3
"""Crash fault and view change (paper Sec. 6.3.2 / Fig. 8).

Crashes the leader of one instance mid-run and shows the throughput timeline:
the dip after the crash, the view change completing one timeout later, and
throughput recovering once a new leader takes over the instance.

Run with:  python examples/crash_recovery.py
"""

import os

from repro import CrashSpec, ExperimentCell, FaultConfig, build_system

DURATION = 20.0 if os.environ.get("REPRO_FAST") else 40.0
from repro.bench.report import format_series


def main() -> None:
    n = 8
    crash_at = 6.0
    cell = ExperimentCell(
        protocol="ladon-pbft",
        n=n,
        batch_size=128,
        total_block_rate=16.0,
        environment="wan",
        duration=DURATION,
        seed=5,
        propose_timeout=5.0,
        view_change_timeout=5.0,
    )
    faults = FaultConfig(crashes=(CrashSpec(replica=n - 1, at=crash_at),))
    result = build_system(cell, faults=faults).run()

    print(f"crash injected at t={crash_at:.0f}s (replica {n - 1}, leader of instance {n - 1})")
    completions = [t for t, instance, _ in result.view_change_times if instance == n - 1]
    if completions:
        print(f"view change for that instance completed at t={min(completions):.1f}s")
    if result.epoch_advancements:
        print(f"epoch advancements at: {[round(t, 1) for t, _ in result.epoch_advancements[:6]]}")
    print()
    print(format_series(result.throughput_series, title="throughput (tx/s) over time"))


if __name__ == "__main__":
    main()
