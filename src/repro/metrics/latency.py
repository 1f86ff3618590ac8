"""End-to-end latency accounting.

Latency is measured from transaction submission until the client receives
f+1 matching replies (paper Sec. 6.2).  In the simulator the reply arrives
one client-to-replica delay after the observing replica globally confirms the
block; blocks record the representative submission time of their batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class LatencyAccumulator:
    """Weighted latency samples (one sample per confirmed block, weighted by txs)."""

    samples: List[float] = field(default_factory=list)
    weights: List[int] = field(default_factory=list)

    def record_block(self, submitted_at: float, confirmed_at: float, tx_count: int) -> None:
        if tx_count <= 0:
            return
        latency = max(0.0, confirmed_at - submitted_at)
        self.samples.append(latency)
        self.weights.append(tx_count)

    def average(self) -> float:
        total_weight = sum(self.weights)
        if not total_weight:
            return 0.0
        return sum(s * w for s, w in zip(self.samples, self.weights)) / total_weight

    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0
