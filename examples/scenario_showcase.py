"""Scenario engine showcase.

Runs a handful of named scenarios end-to-end on the message-level simulator
and prints what each one does to throughput, latency, and the event
timeline.  Also shows how to declare a custom scenario from scratch —
topology, dynamics timeline, and traffic profile — and how scenarios compose
with the parallel sweep harness.

Run with::

    PYTHONPATH=src python examples/scenario_showcase.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.bench.config import ExperimentCell
from repro.bench.report import format_table
from repro.bench.runner import run_des_cell
from repro.bench.sweep import SweepRunner, expand_grid
from repro.protocols.registry import build_system
from repro.scenario import (
    LossBurstSpec,
    Partition,
    ScenarioSpec,
    TopologySpec,
    TrafficSpec,
    get_scenario,
)
from repro.workload.generator import RampTraffic

DURATION = 8.0 if os.environ.get("REPRO_FAST") else 20.0


def run_named_scenarios():
    print("=== Built-in scenarios (ladon-pbft, n=8, 20s) ===")
    rows = []
    for name in ("wan", "wan-partition", "lossy-lan", "flash-crowd", "churn"):
        cell = ExperimentCell(
            protocol="ladon-pbft", n=8, duration=DURATION, batch_size=512, scenario=name,
            environment=get_scenario(name).environment,
        )
        result = run_des_cell(cell)
        row = result.metrics.as_dict()
        row["scenario"] = name
        row["events"] = len(result.dynamics_log)
        rows.append(row)
    print(format_table(
        rows,
        ["scenario", "throughput_tps", "average_latency_s", "confirmed_blocks", "events"],
    ))


def run_custom_scenario():
    print("\n=== A custom scenario, declared inline ===")
    scenario = ScenarioSpec(
        name="two-dc-ramp",
        description="two asymmetric datacenters, ramping load, a mid-run loss burst",
        topology=TopologySpec(
            kind="custom",
            regions=("dc-east", "dc-west"),
            links=(
                ("dc-east", "dc-west", 0.030),
                ("dc-west", "dc-east", 0.055),  # congested return path
            ),
            symmetric=False,
        ),
        dynamics=(LossBurstSpec(at=8.0, until=11.0, drop_probability=0.10),),
        traffic=TrafficSpec(profile=RampTraffic(start_tps=500.0, end_tps=40_000.0,
                                                ramp_duration=10.0)),
    )
    cell = ExperimentCell(
        protocol="ladon-pbft", n=6, duration=DURATION, batch_size=512, seed=7
    )
    result = build_system(cell, scenario=scenario).run()
    print(f"  confirmed {result.metrics.confirmed_blocks} blocks, "
          f"{result.metrics.throughput_tps:.0f} tx/s, "
          f"avg latency {result.metrics.average_latency_s*1000:.0f} ms")
    for time, kind, detail in result.dynamics_log:
        print(f"  t={time:6.2f}s  {kind:14s} {detail}")


def run_scenario_sweep():
    print("\n=== Scenarios x protocols through the sweep harness ===")
    cells = expand_grid(
        {"scenario": ("wan", "wan-partition", "regional-outage"),
         "protocol": ("ladon-pbft", "iss-pbft")},
        defaults=dict(n=8, duration=DURATION, batch_size=512),
    )
    rows = SweepRunner(workers=2).run(cells)
    for cell, row in zip(cells, rows):
        row["scenario"] = cell.scenario
    print(format_table(rows, ["scenario", "protocol", "throughput_tps",
                              "average_latency_s", "confirmed_blocks"]))


def show_partition_impact():
    print("\n=== Partition vs. static baseline (same seed) ===")
    baseline = run_des_cell(ExperimentCell(
        protocol="ladon-pbft", n=8, duration=DURATION, batch_size=512, scenario="wan"))
    partitioned = run_des_cell(ExperimentCell(
        protocol="ladon-pbft", n=8, duration=DURATION, batch_size=512, scenario="wan-partition"))
    print(f"  static    : {baseline.metrics.confirmed_blocks} blocks confirmed")
    print(f"  partition : {partitioned.metrics.confirmed_blocks} blocks confirmed "
          "(split at t=8s, healed at t=16s)")


if __name__ == "__main__":
    run_named_scenarios()
    run_custom_scenario()
    run_scenario_sweep()
    show_partition_impact()
