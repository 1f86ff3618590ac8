#!/usr/bin/env python3
"""Quickstart: run a small Ladon-PBFT deployment and print what happened.

Builds a 4-replica, 4-instance Ladon-PBFT system on the simulated LAN, runs
it for ten virtual seconds, and prints the throughput/latency summary plus
the head of the globally confirmed log (rank / instance / global index).

Run with:  python examples/quickstart.py
"""

from repro import ExperimentCell, build_system


def main() -> None:
    cell = ExperimentCell(
        protocol="ladon-pbft",
        n=4,                  # replicas (one consensus instance per replica)
        batch_size=128,       # transactions per block
        total_block_rate=8.0, # blocks per second across all instances
        environment="lan",
        duration=10.0,        # virtual seconds
        seed=7,
    )
    system = build_system(cell)
    result = system.run()

    metrics = result.metrics
    print("=== Ladon-PBFT quickstart ===")
    print(f"replicas / instances : {cell.n} / {cell.n}")
    print(f"confirmed blocks     : {metrics.confirmed_blocks}")
    print(f"confirmed txs        : {metrics.confirmed_txs}")
    print(f"throughput           : {metrics.throughput_tps:,.0f} tx/s")
    print(f"avg end-to-end latency: {metrics.average_latency_s:.3f} s")
    print(f"causal strength (CS) : {metrics.causal_strength:.3f}")

    print("\nfirst ten globally confirmed blocks (sn, instance, round, rank):")
    for confirmed in result.confirmed[:10]:
        block = confirmed.block
        print(f"  sn={confirmed.sn:3d}  instance={block.instance}  round={block.round:2d}  rank={block.rank:3d}")


if __name__ == "__main__":
    main()
