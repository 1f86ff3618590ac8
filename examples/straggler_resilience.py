#!/usr/bin/env python3
"""Straggler resilience: Ladon vs ISS with one slow leader.

This is the paper's headline scenario (Sec. 2.1 / Fig. 5): one of the leaders
proposes blocks at a tenth of the normal rate.  Under ISS's pre-determined
global ordering the holes it leaves block everything behind them; under
Ladon's dynamic ordering the other instances keep confirming.

Run with:  python examples/straggler_resilience.py
"""

import os

from repro import ExperimentCell, FaultConfig, StragglerSpec, build_system

DURATION = 10.0 if os.environ.get("REPRO_FAST") else 30.0


def run(protocol: str, stragglers: int) -> "tuple":
    faults = (
        FaultConfig(stragglers=(StragglerSpec(replica=2, slowdown=10.0),))
        if stragglers
        else FaultConfig()
    )
    cell = ExperimentCell(
        protocol=protocol,
        n=8,
        batch_size=256,
        total_block_rate=16.0,
        environment="wan",
        duration=DURATION,
        seed=3,
    )
    metrics = build_system(cell, faults=faults).run().metrics
    return metrics.throughput_tps, metrics.average_latency_s, metrics.causal_strength


def main() -> None:
    print("protocol     stragglers  throughput(tx/s)  latency(s)  causal strength")
    print("-" * 72)
    for protocol in ("ladon-pbft", "iss-pbft"):
        for stragglers in (0, 1):
            tput, latency, cs = run(protocol, stragglers)
            print(f"{protocol:12s} {stragglers:^10d} {tput:14,.0f} {latency:11.2f} {cs:12.3f}")

    print()
    print("Expected shape (paper Fig. 5, scaled down): with one straggler ISS loses")
    print("most of its throughput and its latency explodes, while Ladon keeps most")
    print("of its throughput, stays at much lower latency, and preserves causality.")


if __name__ == "__main__":
    main()
