"""Pre-determined global ordering (ISS, Mir, RCC).

A block produced by instance ``i`` in round ``j`` is assigned the fixed global
index ``(j - 1) * m + i`` (the paper's Fig. 1 layout: round-robin interleaving
across the ``m`` instances).  Replicas execute blocks strictly in increasing
global index; a missing block (a "hole" left by a slow instance) blocks every
later block from being globally confirmed.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.block import Block
from repro.core.ordering import Confirmation, GlobalOrderer, PendingEntry


class PredeterminedOrderer(GlobalOrderer):
    """Global ordering by pre-assigned index, as in ISS / Mir / RCC.

    Memory is O(active window): confirmation drains a contiguous prefix, so
    duplicate detection is an index comparison, and pending blocks and the
    confirmed history are held as fingerprint fields unless
    ``retain_blocks`` (see :class:`GlobalOrderer`).
    """

    def __init__(self, num_instances: int, retain_blocks: bool = True) -> None:
        if num_instances <= 0:
            raise ValueError("need at least one instance")
        super().__init__(retain_blocks=retain_blocks)
        self.num_instances = num_instances
        self._pending: Dict[int, PendingEntry] = {}
        self._next_sn = 0

    def global_index(self, block: Block) -> int:
        """The pre-determined index of ``block`` (rounds are 1-based)."""
        if block.round < 1:
            raise ValueError("rounds are 1-based in the partial ordering layer")
        return (block.round - 1) * self.num_instances + block.instance

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def add_partially_committed(self, block: Block, now: float) -> List[Confirmation]:
        index = self.global_index(block)
        if index < self._next_sn or index in self._pending:
            return []  # duplicate delivery
        self._pending[index] = self._pending_entry(block)
        newly: List[Confirmation] = []
        pending = self._pending
        while self._next_sn in pending:
            newly.append(self._append_confirmed(pending.pop(self._next_sn), now))
            self._next_sn += 1
        if not pending:
            pending.clear()  # release the emptied table (pop never shrinks it)
        return newly
