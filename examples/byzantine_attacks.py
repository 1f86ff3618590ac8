#!/usr/bin/env python3
"""Tour of the Byzantine adversary catalog and the safety auditor.

Runs a 4-replica Ladon-PBFT deployment four times — honest, under a
tolerated single-replica equivocation, under targeted censorship, and
under a colluding f >= n/3 equivocation — and prints what each attack does
to the metrics plus the safety auditor's verdict.  The last run is the
negative control: with two of four replicas conspiring, both forks of the
equivocation reach a quorum and the auditor reports the conflicting
commits that prove the f < n/3 bound is tight.

Run with:  python examples/byzantine_attacks.py
(set REPRO_FAST=1 for a shorter smoke run)
"""

import os

from repro import (
    AdversarySpec,
    Equivocation,
    ExperimentCell,
    FaultConfig,
    Silence,
    build_system,
)

DURATION = 6.0 if os.environ.get("REPRO_FAST") else 20.0


def run(name, adversary=None):
    faults = FaultConfig(adversary=adversary) if adversary else FaultConfig()
    cell = ExperimentCell(
        protocol="ladon-pbft",
        n=4,
        batch_size=256,
        total_block_rate=16.0,
        environment="lan",
        duration=DURATION,
        seed=7,
    )
    result = build_system(cell, faults=faults).run()
    metrics = result.metrics
    print(f"--- {name} ---")
    if adversary is not None:
        print(f"adversary : {adversary.describe()}")
    print(f"throughput: {metrics.throughput_tps:,.0f} tx/s"
          f"   avg latency: {metrics.average_latency_s:.3f} s")
    print(f"audit     : {result.audit.summary()}")
    for violation in result.audit.violations[:3]:
        print(f"  VIOLATION {violation}")
    if len(result.audit.violations) > 3:
        print(f"  ... and {len(result.audit.violations) - 3} more")
    print()
    return result


def main() -> None:
    honest = run("honest baseline")

    tolerated = run(
        "equivocation, f < n/3 (tolerated)",
        AdversarySpec(attacks=(Equivocation(replicas=(3,)),)),
    )
    assert tolerated.audit.safety_ok, "a single equivocator must not break safety"

    censored = run(
        "silence: replica 3 censors its proposals towards replica 0",
        AdversarySpec(
            attacks=(Silence(replicas=(3,), targets=(0,), kinds=("proposal",), start=2.0),)
        ),
    )
    assert censored.metrics.throughput_tps < honest.metrics.throughput_tps

    colluding = run(
        "equivocation, f >= n/3 (negative control)",
        AdversarySpec(attacks=(Equivocation(replicas=(2, 3)),)),
    )
    assert not colluding.audit.safety_ok, "the auditor must catch the fork"

    print("summary: the auditor certified safety for every tolerable run and")
    print("reported conflicting commits exactly when the fault bound was exceeded.")


if __name__ == "__main__":
    main()
