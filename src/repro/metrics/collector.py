"""A run's numbers, computed from the observer's confirmed log.

Throughput and latency are defined by when confirmed transactions reach
clients (paper Sec. 6.2): a block counts when it is *globally confirmed*,
not when it is only partially committed.  The observer's orderer keeps that
log as :class:`~repro.core.ordering.ConfirmedBlock` records; the functions
here read it once, at the end of a run, and keep no state of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.causality import causal_strength
from repro.core.ordering import ConfirmedBlock
from repro.metrics.resources import ResourceModel


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


def _txs_per_second(confirmed: Sequence[ConfirmedBlock]) -> Dict[int, int]:
    """Transactions confirmed per one-second bin.

    A confirmation at or before time 0 lands in bin 0: the series starts
    with the run, so no transaction can fall into a bin it never reports.
    """
    bins: Dict[int, int] = {}
    for c in confirmed:
        second = max(0, int(c.confirmed_at // 1.0))
        bins[second] = bins.get(second, 0) + c.block.tx_count
    return bins


def throughput_series(
    confirmed: Sequence[ConfirmedBlock], until: Optional[float]
) -> List[Tuple[float, float]]:
    """(bin start, tx/s) per one-second bin, empty bins included.

    The series runs to the bin of ``until``, or of the last confirmation
    when ``until`` is None.
    """
    bins = _txs_per_second(confirmed)
    if not bins and until is None:
        return []
    last = max(0, int(until // 1.0)) if until is not None else max(bins)
    return [(float(second), float(bins.get(second, 0))) for second in range(last + 1)]


def summarise(
    confirmed: Sequence[ConfirmedBlock],
    partially_committed: int,
    protocol: str,
    n: int,
    stragglers: int,
    duration: float,
    resources: Optional[ResourceModel] = None,
) -> RunMetrics:
    """Summarise one run from its confirmed log, read in confirmation order.

    A block's latency runs from its batch's submission (its proposal when
    it has none) to its confirmation; the average weights each block by its
    transactions, so an empty block carries no latency sample.
    """
    per_second = _txs_per_second(confirmed)
    confirmed_txs = sum(per_second.values())
    weighted = 0.0
    max_latency = 0.0
    for c in confirmed:
        block = c.block
        tx_count = block.tx_count
        if tx_count > 0:
            submitted = block.batch_submitted_at or block.proposed_at
            latency = max(0.0, c.confirmed_at - submitted)
            weighted += latency * tx_count
            max_latency = max(max_latency, latency)
    return RunMetrics(
        protocol=protocol,
        n=n,
        stragglers=stragglers,
        duration=duration,
        throughput_tps=confirmed_txs / max(duration, 1e-9),
        peak_throughput_tps=float(max(per_second.values(), default=0)),
        average_latency_s=weighted / confirmed_txs if confirmed_txs else 0.0,
        max_latency_s=max_latency,
        causal_strength=causal_strength(confirmed),
        confirmed_blocks=len(confirmed),
        confirmed_txs=confirmed_txs,
        partially_committed_blocks=partially_committed,
        cpu_percent=resources.average_cpu_percent(duration) if resources else 0.0,
        bandwidth_mbps=resources.average_bandwidth_mbps(duration) if resources else 0.0,
    )
