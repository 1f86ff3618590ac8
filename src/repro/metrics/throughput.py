"""Throughput accounting.

Throughput is defined as the number of transactions delivered to clients per
second (paper Sec. 6.2); blocks count toward throughput when they become
*globally confirmed*, not when they are only partially committed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class ThroughputSeries:
    """Transactions confirmed per fixed-width time bin.

    Timestamps at or before zero land in bin 0: the series starts at the
    beginning of the run, and events stamped with a (slightly) negative time
    — e.g. a submission time extrapolated before the run started — must not
    disappear into negative bins that ``series()`` would never report.
    """

    bin_width: float = 1.0
    _bins: Dict[int, int] = field(default_factory=dict)
    total_txs: int = 0

    def _bin_index(self, time: float) -> int:
        """Floor ``time`` onto the bin grid, clamping negatives into bin 0."""
        return max(0, int(time // self.bin_width))

    def record(self, time: float, tx_count: int) -> None:
        if tx_count < 0:
            raise ValueError("tx_count must be non-negative")
        index = self._bin_index(time)
        self._bins[index] = self._bins.get(index, 0) + tx_count
        self.total_txs += tx_count

    def series(self, until: Optional[float] = None) -> List[Tuple[float, float]]:
        """Return (bin start time, tx/s) pairs, including empty bins."""
        if not self._bins and until is None:
            return []
        last = self._bin_index(until) if until is not None else max(self._bins)
        out = []
        for index in range(0, last + 1):
            count = self._bins.get(index, 0)
            out.append((index * self.bin_width, count / self.bin_width))
        return out

    def peak(self) -> float:
        """Peak per-bin throughput (tx/s)."""
        if not self._bins:
            return 0.0
        return max(self._bins.values()) / self.bin_width
