"""Reference implementation of Ladon's dynamic global ordering.

:class:`ScanDrainDynamicOrderer` is Algorithm 1 written the plain way: a dict
of every received block per instance (duplicate detection and the
partially-confirmed prefix), a dict of unconfirmed blocks, the O(m) bar scan
``_compute_bar`` on every partial commit and a ``min()`` over the whole
unconfirmed set per confirmation (O(k²) for a k-block drain).  It shares
nothing with :class:`repro.core.ordering.DynamicOrderer` but the
:class:`~repro.core.ordering.GlobalOrderer` confirmed-history helpers, so
the equivalence property tests (``tests/test_core_ordering.py``) and the
drain micro-benchmark (``benchmarks/test_orderer_drain_scaling.py``) pin the
production orderer against an independent baseline.

:func:`held_blocks` is the object-graph walk with which those tests and
``benchmarks/test_memory_bounds.py`` show that a non-retaining orderer
keeps no block alive.
"""

import gc
import types
from typing import Dict, List, Optional, Tuple

from repro.core.block import Block, ordering_key
from repro.core.ordering import Confirmation, ConfirmationBar, ConfirmedBlock, GlobalOrderer

#: referents the walk does not enter: code and namespaces, not data
_OPAQUE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def held_blocks(root: object) -> List[object]:
    """Every :class:`Block` / :class:`ConfirmedBlock` reachable from ``root``.

    Follows ``gc.get_referents`` through containers and instances; classes,
    modules and functions are not entered, so the walk stays inside the
    data ``root`` owns.
    """
    seen = {id(root)}
    stack = [root]
    found = []
    while stack:
        obj = stack.pop()
        if isinstance(obj, (Block, ConfirmedBlock)):
            found.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, _OPAQUE):
                seen.add(id(ref))
                stack.append(ref)
    return found


class ScanDrainDynamicOrderer(GlobalOrderer):
    """Algorithm 1 verbatim: O(m) bar per partial commit, O(k) scan per confirmation."""

    def __init__(self, num_instances: int, retain_blocks: bool = True) -> None:
        if num_instances <= 0:
            raise ValueError("need at least one instance")
        super().__init__(retain_blocks=retain_blocks)
        self.num_instances = num_instances
        self._received: List[Dict[int, Block]] = [{} for _ in range(num_instances)]
        self._last_partially_confirmed: List[Optional[Block]] = [None] * num_instances
        #: unconfirmed blocks keyed by (rank, instance, round): ``≺``, then round
        self._unconfirmed: Dict[Tuple[int, int, int], Block] = {}

    @property
    def pending_count(self) -> int:
        return len(self._unconfirmed)

    def add_partially_committed(self, block: Block, now: float) -> List[Confirmation]:
        instance = block.instance
        if instance >= self.num_instances:
            raise ValueError(f"block instance {instance} out of range")
        received = self._received[instance]
        if block.round < 1 or block.round in received:
            return []  # duplicate delivery
        received[block.round] = block
        self._unconfirmed[(block.rank, instance, block.round)] = block
        last = self._last_partially_confirmed[instance]
        nxt = 1 if last is None else last.round + 1
        while nxt in received:
            last = received[nxt]
            nxt += 1
        self._last_partially_confirmed[instance] = last
        return self._drain(now)

    def _compute_bar(self) -> Optional[ConfirmationBar]:
        """The bar: one past the lowest last-partially-confirmed block."""
        if any(b is None for b in self._last_partially_confirmed):
            return None
        lowest = min(self._last_partially_confirmed, key=ordering_key)
        return ConfirmationBar(rank=lowest.rank + 1, instance=lowest.instance)

    def _drain(self, now: float) -> List[Confirmation]:
        bar = self._compute_bar()
        if bar is None:
            return []
        newly: List[Confirmation] = []
        unconfirmed = self._unconfirmed
        while unconfirmed:
            key = min(unconfirmed)
            candidate = unconfirmed[key]
            if not bar.admits(candidate):
                break
            del unconfirmed[key]
            newly.append(self._append_confirmed(self._pending_entry(candidate), now))
        return newly

    def unconfirmed_blocks(self) -> List[Block]:
        return [self._unconfirmed[key] for key in sorted(self._unconfirmed)]
