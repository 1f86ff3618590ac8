"""Transaction batches.

Payload contents are not interpreted by the protocols; only the count
matters, so no run materialises a client transaction.  The wire charges
each transaction a 500-byte payload, the average Bitcoin transaction size
of the paper's evaluation (Sec. 6.1), in
:func:`repro.consensus.messages.batch_size_bytes`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Batch:
    """A batch cut by a leader.

    Two representations are supported:

    * **synthetic** — ``synthetic_count`` says how many transactions the
      batch stands for without materialising them (every client batch: per-
      transaction identity is irrelevant, and allocating millions of objects
      would dominate the simulation);
    * **materialised** — ``txs`` holds opaque items.  The only materialised
      batch a run builds is DQBFT's ordering batch, whose items are the
      :class:`~repro.core.block.BlockId` references of the blocks it orders.

    ``submitted_at`` is the representative submission time used for latency
    accounting.
    """

    txs: tuple = ()
    synthetic_count: int = 0
    submitted_at: float = 0.0

    def __post_init__(self) -> None:
        if self.synthetic_count < 0:
            raise ValueError("synthetic_count must be non-negative")
        if self.txs and self.synthetic_count:
            raise ValueError("a batch is either materialised or synthetic, not both")

    @property
    def tx_count(self) -> int:
        return len(self.txs) if self.txs else self.synthetic_count

    @classmethod
    def synthetic(cls, count: int, submitted_at: float) -> "Batch":
        return cls(synthetic_count=count, submitted_at=submitted_at)

    @classmethod
    def empty(cls) -> "Batch":
        return cls()
