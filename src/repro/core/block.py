"""Blocks and the global ordering relation ``≺``.

A block (paper Sec. 3.2) is the tuple ``(txs, index, round, rank)`` where
``index`` is the consensus-instance index, ``round`` is the round in which the
instance proposed it and ``rank`` is the monotonic rank assigned at proposal.
The global ordering index ``sn`` is *not* a field — it is computed when the
block is globally confirmed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.crypto.hashing import digest_hex


@dataclass(frozen=True, slots=True)
class BlockId:
    """Uniquely identifies a block by instance and round."""

    instance: int
    round: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"B^{self.instance}_{self.round}"


@dataclass(frozen=True, slots=True)
class Block:
    """A partially committed (or proposed) block.

    ``txs`` is the tuple of opaque items of a materialised batch (see
    :class:`repro.workload.transactions.Batch`); ``proposed_at`` records
    the virtual time the leader created the block (used by the causal-strength
    metric and to order "generation" events), and ``committed_at`` is filled
    when the block becomes partially committed.
    """

    instance: int
    round: int
    rank: int
    txs: Tuple = ()
    epoch: int = 0
    proposer: int = -1
    proposed_at: float = 0.0
    committed_at: Optional[float] = None
    payload_digest: str = field(default="")
    #: number of transactions the block stands for when ``txs`` is not
    #: materialised (synthetic batches in peak-throughput runs)
    tx_count_hint: int = 0
    #: representative submission time of the block's transactions, used for
    #: end-to-end latency accounting
    batch_submitted_at: float = 0.0

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        if self.round < 0:
            raise ValueError("round must be non-negative")
        if self.instance < 0:
            raise ValueError("instance index must be non-negative")
        if not self.payload_digest:
            object.__setattr__(
                self,
                "payload_digest",
                digest_hex(self.instance, self.round, self.rank, len(self.txs)),
            )

    @property
    def block_id(self) -> BlockId:
        return BlockId(instance=self.instance, round=self.round)

    @property
    def tx_count(self) -> int:
        return len(self.txs) if self.txs else self.tx_count_hint

    def with_commit_time(self, committed_at: float) -> "Block":
        """Return a copy of this block annotated with its partial-commit time."""
        return Block(
            instance=self.instance,
            round=self.round,
            rank=self.rank,
            txs=self.txs,
            epoch=self.epoch,
            proposer=self.proposer,
            proposed_at=self.proposed_at,
            committed_at=committed_at,
            payload_digest=self.payload_digest,
            tx_count_hint=self.tx_count_hint,
            batch_submitted_at=self.batch_submitted_at,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Block(inst={self.instance}, round={self.round}, rank={self.rank})"


def ordering_key(block: Block) -> Tuple[int, int]:
    """The total-order key: increasing rank, ties broken by instance index."""
    return (block.rank, block.instance)


def precedes(a: Block, b: Block) -> bool:
    """``a ≺ b``: a is globally ordered before b (Sec. 4.2)."""
    return ordering_key(a) < ordering_key(b)
