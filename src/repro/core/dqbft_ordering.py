"""DQBFT-style global ordering.

DQBFT (Arun & Ravindran, PVLDB 2022) adds one *special ordering instance*: the
other instances only partially commit blocks, and the ordering instance runs
consensus on "sequencing" decisions that append partially committed blocks to
the global log in the order its leader observes them.  This removes the rigid
round-robin interleaving (so it tolerates stragglers much better than ISS)
but (a) adds the ordering instance's own consensus latency to every block and
(b) centralises ordering at that leader — if *it* straggles, the whole system
stalls, and it can reorder blocks arbitrarily (no causality guarantee).

In this reproduction the ordering instance is modelled by the protocol layer
(:mod:`repro.protocols.dqbft`) which feeds *sequencing decisions* into this
orderer; the orderer simply appends blocks in decision order once both the
decision and the block itself are available.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from repro.core.block import Block, BlockId
from repro.core.ordering import Confirmation, GlobalOrderer, PendingEntry


class DQBFTOrderer(GlobalOrderer):
    """Appends blocks in the order decided by the central ordering instance.

    Draining is O(1) amortised per confirmation already (a deque of
    decisions), and confirmed blocks are released from the pending buffer
    (only their ids are remembered for duplicate detection), so
    :meth:`undecided_blocks` is O(pending).
    """

    def __init__(self, num_instances: int, retain_blocks: bool = True) -> None:
        if num_instances <= 0:
            raise ValueError("need at least one instance")
        super().__init__(retain_blocks=retain_blocks)
        self.num_instances = num_instances
        self._blocks: Dict[BlockId, PendingEntry] = {}
        self._decisions: Deque[BlockId] = deque()
        self._decided: set = set()
        self._confirmed_ids: set = set()

    @property
    def pending_count(self) -> int:
        return len(self._blocks)

    # ----------------------------------------------------- ordering decisions
    def add_sequencing_decision(self, block_id: BlockId, now: float) -> List[Confirmation]:
        """Record that the ordering instance decided ``block_id`` comes next."""
        if block_id in self._decided or block_id in self._confirmed_ids:
            return []
        self._decided.add(block_id)
        self._decisions.append(block_id)
        return self._drain(now)

    def add_partially_committed(self, block: Block, now: float) -> List[Confirmation]:
        block_id = block.block_id
        if block_id in self._blocks or block_id in self._confirmed_ids:
            return []
        self._blocks[block_id] = self._pending_entry(block)
        return self._drain(now)

    def _drain(self, now: float) -> List[Confirmation]:
        newly: List[Confirmation] = []
        while self._decisions:
            head = self._decisions[0]
            entry = self._blocks.get(head)
            if entry is None:
                break  # decision arrived before the block itself
            self._decisions.popleft()
            if head in self._confirmed_ids:
                continue
            newly.append(self._append_confirmed(entry, now))
            self._confirmed_ids.add(head)
            # Confirmed blocks leave the buffer; the id set covers duplicates.
            del self._blocks[head]
            self._decided.discard(head)
        if not self._blocks:
            self._blocks.clear()
        return newly

    # ------------------------------------------------------------- inspection
    def undecided_blocks(self) -> List[Block]:
        """Blocks partially committed but not yet sequenced by the orderer."""
        self._require_blocks("undecided_blocks()")
        decided = self._decided
        return [
            entry[3] for block_id, entry in self._blocks.items() if block_id not in decided
        ]
