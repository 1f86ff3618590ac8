"""Per-run metric collection."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.ordering import ConfirmedBlock
from repro.metrics.latency import LatencyAccumulator
from repro.metrics.resources import ResourceModel
from repro.metrics.throughput import ThroughputSeries
from repro.core.causality import causal_strength


@dataclass
class RunMetrics:
    """Summary of one experiment run (one protocol / configuration cell)."""

    protocol: str
    n: int
    stragglers: int
    duration: float
    throughput_tps: float
    peak_throughput_tps: float
    average_latency_s: float
    max_latency_s: float
    causal_strength: float
    confirmed_blocks: int
    confirmed_txs: int
    partially_committed_blocks: int
    cpu_percent: float = 0.0
    bandwidth_mbps: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        out = {
            "protocol": self.protocol,
            "n": self.n,
            "stragglers": self.stragglers,
            "duration": self.duration,
            "throughput_tps": self.throughput_tps,
            "peak_throughput_tps": self.peak_throughput_tps,
            "average_latency_s": self.average_latency_s,
            "max_latency_s": self.max_latency_s,
            "causal_strength": self.causal_strength,
            "confirmed_blocks": self.confirmed_blocks,
            "confirmed_txs": self.confirmed_txs,
            "partially_committed_blocks": self.partially_committed_blocks,
            "cpu_percent": self.cpu_percent,
            "bandwidth_mbps": self.bandwidth_mbps,
        }
        out.update(self.extra)
        return out


class MetricsCollector:
    """Collects confirmations at one observing replica and summarises the run.

    Only the observing replica has one.  The DES system sets
    ``partially_committed`` from the observer's commit logs at the end of a
    run; the analytical engine counts with :meth:`record_partial_commit`.
    """

    def __init__(self) -> None:
        self.throughput = ThroughputSeries()
        self.latency = LatencyAccumulator()
        self.confirmed: List[ConfirmedBlock] = []
        self.partially_committed = 0

    # ------------------------------------------------------------- recording
    def record_partial_commit(self) -> None:
        self.partially_committed += 1

    def record_confirmation(self, confirmed: ConfirmedBlock) -> None:
        block = confirmed.block
        self.confirmed.append(confirmed)
        self.throughput.record(confirmed.confirmed_at, block.tx_count)
        submitted = block.batch_submitted_at if block.batch_submitted_at else block.proposed_at
        self.latency.record_block(submitted, confirmed.confirmed_at, block.tx_count)

    def record_confirmations(self, confirmations: Sequence[ConfirmedBlock]) -> None:
        for confirmed in confirmations:
            self.record_confirmation(confirmed)

    # ------------------------------------------------------------- summaries
    def summarise(
        self,
        protocol: str,
        n: int,
        stragglers: int,
        duration: float,
        resources: Optional[ResourceModel] = None,
        warmup: float = 0.0,
    ) -> RunMetrics:
        effective = max(duration - warmup, 1e-9)
        confirmed_txs = sum(c.block.tx_count for c in self.confirmed if c.confirmed_at >= warmup)
        return RunMetrics(
            protocol=protocol,
            n=n,
            stragglers=stragglers,
            duration=duration,
            throughput_tps=confirmed_txs / effective,
            peak_throughput_tps=self.throughput.peak(),
            average_latency_s=self.latency.average(),
            max_latency_s=self.latency.maximum(),
            causal_strength=causal_strength(self.confirmed),
            confirmed_blocks=len(self.confirmed),
            confirmed_txs=confirmed_txs,
            partially_committed_blocks=self.partially_committed,
            cpu_percent=resources.average_cpu_percent(duration) if resources else 0.0,
            bandwidth_mbps=resources.average_bandwidth_mbps(duration) if resources else 0.0,
        )
