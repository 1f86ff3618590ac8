"""Every metric the benchmark emits, declared once.

``BENCHMARK.json`` lists the same names, units, directions and bounds; the
self-test asserts the two agree.  ``kind`` says what sort of number it is:

* ``host``  — host time or memory: what the simulator costs us; noisy.
* ``sim``   — a simulated statistic or work counter: exact for a fixed
  seed, so two runs of one seed must agree to the last digit and a pure
  speed-up must leave it bit-identical.

Layers are the packages under ``src/repro/``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

LAYERS: Tuple[str, ...] = (
    "sim", "runtime", "protocols", "consensus", "core",
    "crypto", "metrics", "workload", "scenario", "shard",
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    kind: str  # "host" | "sim"
    #: end-to-end only: share of the base median it may worsen by
    bound: Optional[float] = None
    #: per-layer only: comes from the traced (cProfile) pass
    traced: bool = False


# Host-time bounds are the widest the driver's contract allows: the 2-core
# reference box has noisy episodes in which wall_s spreads by up to 24 %
# across invocations (README, "Noise").  Simulated statistics are exact per
# seed; their bound only has to cover seed-to-seed variation (sim_tps on the
# straggler cell: 3.5-4.7 % IQR over ten seeds, because the seed picks the
# straggler; everything else < 1 %).
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "host", bound=0.25),
    Metric("wall_s", "s", "lower", "host", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", "host", bound=0.05),
    Metric("sim_tps", "tx/sim-s", "higher", "sim", bound=0.15),
    Metric("sim_latency_p50_s", "sim-s", "lower", "sim", bound=0.05),
    Metric("sim_latency_p90_s", "sim-s", "lower", "sim", bound=0.05),
)


def _layer_metrics() -> Tuple[Metric, ...]:
    rows = [
        # exact counters, from every untraced run
        Metric("sim.events", "count", "lower", "sim"),
        Metric("sim.msgs_sent", "count", "lower", "sim"),
        Metric("sim.msgs_delivered", "count", "lower", "sim"),
        Metric("sim.msgs_dropped", "count", "lower", "sim"),
        Metric("sim.bytes_sent", "B", "lower", "sim"),
        Metric("sim.msgs_per_block", "count", "lower", "sim"),
        Metric("consensus.partial_commits", "count", "higher", "sim"),
        Metric("consensus.view_changes", "count", "lower", "sim"),
        Metric("core.confirmed_blocks", "count", "higher", "sim"),
        Metric("core.confirm_ratio", "ratio", "higher", "sim"),
        Metric("core.pending_at_end", "count", "lower", "sim"),
        Metric("crypto.ops", "count", "lower", "sim"),
        Metric("metrics.latency_samples", "count", "higher", "sim"),
        Metric("shard.sync_rounds", "count", "lower", "sim"),
        Metric("shard.drain_rounds", "count", "lower", "sim"),
        Metric("shard.frames_routed", "count", "lower", "sim"),
        Metric("shard.lookahead_ms", "ms", "higher", "sim"),
        Metric("shard.min_margin_ms", "ms", "higher", "sim"),
        Metric("shard.events_imbalance", "ratio", "lower", "sim"),
        # phase times, from every untraced run, timed around the public calls
        Metric("protocols.build_s", "s", "lower", "host"),
        Metric("protocols.start_s", "s", "lower", "host"),
        Metric("runtime.run_s", "s", "lower", "host"),
        Metric("protocols.collect_s", "s", "lower", "host"),
        Metric("metrics.audit_s", "s", "lower", "host"),
        Metric("runtime.cpu_s", "s", "lower", "host"),
        Metric("sim.events_per_s", "1/s", "higher", "host"),
        Metric("shard.worker_cpu_s", "s", "lower", "host"),
        Metric("shard.hub_cpu_s", "s", "lower", "host"),
        Metric("shard.busy_share", "ratio", "higher", "host"),
    ]
    for layer in LAYERS:
        rows.append(Metric(f"{layer}.self_s", "s", "lower", "host", traced=True))
        rows.append(Metric(f"{layer}.builtin_s", "s", "lower", "host", traced=True))
        rows.append(Metric(f"{layer}.calls", "count", "lower", "sim", traced=True))
    rows += [
        Metric("sim.heap_s", "s", "lower", "host", traced=True),
        Metric("shard.hub_wait_s", "s", "lower", "host", traced=True),
        Metric("shard.hub_ipc_s", "s", "lower", "host", traced=True),
        Metric("shard.ipc_bytes", "B", "lower", "sim", traced=True),
        Metric("trace.overhead_ratio", "ratio", "lower", "host", traced=True),
        Metric("trace.coverage", "ratio", "higher", "host", traced=True),
    ]
    return tuple(rows)


PER_LAYER: Tuple[Metric, ...] = _layer_metrics()
BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def quartiles(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile distance as a share of the median (None under 2 samples)."""
    q = quartiles(values)
    median = statistics.median(values) if q else 0.0
    return (q[1] - q[0]) / abs(median) if median else None


def benchmark_json(workloads, run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document these tables describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
