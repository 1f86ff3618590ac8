"""Global ordering layer.

Two implementations of the :class:`GlobalOrderer` interface live elsewhere
(:mod:`repro.core.predetermined` and :mod:`repro.core.dqbft_ordering`); this
module defines the interface, the confirmed-block record, and Ladon's
:class:`DynamicOrderer`, a faithful implementation of Algorithm 1.

Two hot-path properties of :class:`DynamicOrderer` (both pinned against the
reference :class:`ScanDrainDynamicOrderer` by equivalence property tests):

* the **confirmation bar** — the minimum ordering key over the per-instance
  last-partially-confirmed blocks — is maintained *incrementally* in a lazy
  min-heap, so each partial commit pays O(log m) instead of rebuilding a
  list of m blocks and scanning it (the old ``_compute_bar``, kept as the
  reference implementation and for cold-path inspection);
* memory is **O(active window)**: per-instance round buffers are pruned as
  the partially-confirmed prefix advances, duplicate detection uses a
  contiguous watermark plus a small overflow set instead of an ever-growing
  id set, and a non-retaining mode (``retain_blocks=False``) keeps only
  compact confirmed-block fingerprints for the safety auditor instead of
  the full :class:`ConfirmedBlock` history (the observing replica retains
  everything, so experiment outputs are unchanged).
"""

# staticcheck: hot-path
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Tuple

from repro.core.block import Block, ordering_key


@dataclass(frozen=True, slots=True)
class ConfirmedBlock:
    """A globally confirmed block with its global ordering index ``sn``."""

    block: Block
    sn: int
    confirmed_at: float

    @property
    def rank(self) -> int:
        return self.block.rank

    @property
    def instance(self) -> int:
        return self.block.instance


@dataclass(frozen=True, slots=True)
class ConfirmationBar:
    """The confirmation bar: the lowest ordering key future blocks can take."""

    rank: int
    instance: int

    def admits(self, block: Block) -> bool:
        """True when ``block ≺ bar`` and so the block can be confirmed."""
        return ordering_key(block) < (self.rank, self.instance)


#: compact audit fingerprint of one confirmed block
ConfirmedFingerprint = Tuple[int, int, int, int, str]


def _fingerprint(confirmed: ConfirmedBlock) -> ConfirmedFingerprint:
    block = confirmed.block
    return (confirmed.sn, block.instance, block.round, block.rank, block.payload_digest)


class GlobalOrderer:
    """Interface of the global ordering layer (paper Sec. 3.3).

    ``add_partially_committed`` feeds the output of the partial ordering
    layer; the orderer returns the (possibly empty) list of newly confirmed
    blocks, already assigned consecutive global ordering indices.

    Implementations share the confirmed-history bookkeeping: with
    ``retain_blocks=True`` (the default) the full :class:`ConfirmedBlock`
    history is kept and exposed through :attr:`confirmed`; with
    ``retain_blocks=False`` only compact audit fingerprints are kept —
    ``confirmed`` then raises so that a forgotten caller fails loudly
    instead of silently reading an empty history.
    """

    def __init__(self, retain_blocks: bool = True) -> None:
        self.retain_blocks = retain_blocks
        self._confirmed: List[ConfirmedBlock] = []
        self._fingerprints: List[ConfirmedFingerprint] = []
        self._confirmed_count = 0
        self._confirmed_cache: Optional[Tuple[ConfirmedBlock, ...]] = None

    def add_partially_committed(self, block: Block, now: float) -> List[ConfirmedBlock]:
        raise NotImplementedError

    # ------------------------------------------------------ confirmed history
    def _append_confirmed(self, block: Block, now: float) -> ConfirmedBlock:
        """Assign the next sn to ``block`` and record it."""
        confirmed = ConfirmedBlock(block=block, sn=self._confirmed_count, confirmed_at=now)
        self._confirmed_count += 1
        if self.retain_blocks:
            self._confirmed.append(confirmed)
            self._confirmed_cache = None
        else:
            self._fingerprints.append(_fingerprint(confirmed))
        return confirmed

    @property
    def confirmed(self) -> Tuple[ConfirmedBlock, ...]:
        """The full confirmed history (cached: cheap on repeated calls)."""
        if not self.retain_blocks:
            raise RuntimeError(
                "orderer runs with retain_blocks=False (bounded memory); "
                "use confirmed_count / confirmed_fingerprints() instead"
            )
        cache = self._confirmed_cache
        if cache is None or len(cache) != len(self._confirmed):
            cache = self._confirmed_cache = tuple(self._confirmed)
        return cache

    @property
    def confirmed_count(self) -> int:
        """Number of confirmed blocks — O(1), never copies history."""
        return self._confirmed_count

    def confirmed_fingerprints(self) -> List[ConfirmedFingerprint]:
        """Compact (sn, instance, round, rank, digest) log for the auditor."""
        if self.retain_blocks:
            return [_fingerprint(c) for c in self._confirmed]
        return list(self._fingerprints)

    @property
    def pending_count(self) -> int:
        """Number of partially committed but not yet confirmed blocks."""
        raise NotImplementedError


class DynamicOrderer(GlobalOrderer):
    """Ladon's dynamic global ordering (Algorithm 1).

    The orderer keeps, per instance, the last *partially confirmed* block —
    a block is partially confirmed only when every earlier round of its
    instance is partially committed — plus the set ``S`` of unconfirmed
    blocks.  When fed a new block it advances the bar (the lowest
    last-partially-confirmed ordering key across instances, maintained
    incrementally), then drains every unconfirmed block below the bar in
    ``≺`` order.

    Unconfirmed blocks are kept both in a dict (duplicate detection,
    inspection) and in a min-heap keyed by ``ordering_key``, so each
    confirmation is O(log k); the bar itself costs O(log m) amortised per
    partial commit (a lazy heap over the per-instance last-partially-
    confirmed keys, stale entries skipped on peek) instead of the O(m)
    list-build-and-min of the original ``_compute_bar``.
    """

    def __init__(self, num_instances: int, retain_blocks: bool = True) -> None:
        if num_instances <= 0:
            raise ValueError("need at least one instance")
        super().__init__(retain_blocks=retain_blocks)
        self.num_instances = num_instances
        # Per instance: blocks received keyed by round (pruned as the
        # partially-confirmed prefix advances), and the next round needed to
        # extend that contiguous prefix.
        self._by_instance: Dict[int, Dict[int, Block]] = {i: {} for i in range(num_instances)}
        self._next_round: Dict[int, int] = {i: 1 for i in range(num_instances)}
        self._last_partially_confirmed: Dict[int, Optional[Block]] = {
            i: None for i in range(num_instances)
        }
        self._unconfirmed: Dict[Tuple[int, int], Block] = {}
        # Min-heap of (rank, instance, round) over the unconfirmed set.
        # (rank, instance) is the ordering key; the round makes entries
        # unique and resolvable back into ``_unconfirmed``.
        self._heap: List[Tuple[int, int, int]] = []
        # ----- incremental bar state -----
        # Current last-partially-confirmed rank per instance (None = none yet),
        # a lazy min-heap of (rank, instance) with stale entries skipped at
        # peek time, and the count of instances contributing to the bar.
        self._bar_rank: List[Optional[int]] = [None] * num_instances
        self._bar_heap: List[Tuple[int, int]] = []
        self._bar_ready = 0
        # ----- duplicate detection (bounded) -----
        # Per instance: every round <= watermark is confirmed; confirmed
        # rounds above the watermark live in a small overflow set until the
        # prefix catches up.  Equivalent to the old O(history) id set.  An
        # instance gets its own set when it first confirms out of round
        # order; until then all share one empty frozenset.
        self._confirmed_watermark: List[int] = [0] * num_instances
        self._confirmed_above: List[AbstractSet[int]] = [frozenset()] * num_instances

    # ------------------------------------------------------------ interface
    @property
    def pending_count(self) -> int:
        return len(self._unconfirmed)

    def add_partially_committed(self, block: Block, now: float) -> List[ConfirmedBlock]:
        instance = block.instance
        if instance >= self.num_instances:
            raise ValueError(
                f"block instance {instance} out of range (m={self.num_instances})"
            )
        round_ = block.round
        key = (instance, round_)
        if (
            key in self._unconfirmed
            or round_ <= self._confirmed_watermark[instance]
            or round_ in self._confirmed_above[instance]
        ):
            return []  # duplicate delivery
        self._by_instance[instance][round_] = block
        self._unconfirmed[key] = block
        heapq.heappush(self._heap, (block.rank, instance, round_))
        self._advance_partially_confirmed(instance)
        return self._drain(now)

    # -------------------------------------------------------------- internals
    def _advance_partially_confirmed(self, instance: int) -> None:
        """Extend the contiguous prefix of partially confirmed blocks.

        Rounds behind the prefix are popped from the per-instance buffer
        (the blocks stay referenced by ``_unconfirmed`` until confirmed),
        and the bar heap learns the new last-partially-confirmed rank.
        """
        rounds = self._by_instance[instance]
        nxt = self._next_round[instance]
        last = None
        while nxt in rounds:
            last = rounds.pop(nxt)
            nxt += 1
        if last is None:
            return
        self._next_round[instance] = nxt
        self._last_partially_confirmed[instance] = last
        if self._bar_rank[instance] is None:
            self._bar_ready += 1
        if self._bar_rank[instance] != last.rank:
            self._bar_rank[instance] = last.rank
            heapq.heappush(self._bar_heap, (last.rank, instance))

    def _bar_key(self) -> Optional[Tuple[int, int]]:
        """The bar's (rank, instance) exclusive upper bound, maintained lazily.

        None while some instance has no partially confirmed block yet (the
        bar must stay at its initial value: that instance could still
        produce a block of any low rank it has certified).
        """
        if self._bar_ready < self.num_instances:
            return None
        heap = self._bar_heap
        ranks = self._bar_rank
        while True:
            rank, instance = heap[0]
            if ranks[instance] == rank:
                return (rank + 1, instance)
            heapq.heappop(heap)  # stale: the instance has advanced past it

    def _compute_bar(self) -> Optional[ConfirmationBar]:
        """Reference bar computation: O(m) scan (Algorithm 1 verbatim).

        Kept as the pinned baseline (:class:`ScanDrainDynamicOrderer` and
        the equivalence tests) and for cold-path inspection; the production
        drain uses the incremental :meth:`_bar_key`.
        """
        last_blocks = [b for b in self._last_partially_confirmed.values() if b is not None]
        if len(last_blocks) < self.num_instances:
            return None
        lowest = min(last_blocks, key=ordering_key)
        return ConfirmationBar(rank=lowest.rank + 1, instance=lowest.instance)

    def _mark_confirmed(self, instance: int, round_: int) -> None:
        """Record (instance, round) as confirmed, folding into the watermark."""
        above = self._confirmed_above[instance]
        watermark = self._confirmed_watermark[instance]
        if round_ == watermark + 1 and not above:
            self._confirmed_watermark[instance] = round_  # in round order: nothing to park
            return
        above = self._confirmed_above[instance] = above or set()
        above.add(round_)
        while watermark + 1 in above:
            watermark += 1
            above.discard(watermark)
        self._confirmed_watermark[instance] = watermark

    def _drain(self, now: float) -> List[ConfirmedBlock]:
        bar_key = self._bar_key()
        if bar_key is None:
            return []
        newly: List[ConfirmedBlock] = []
        heap = self._heap
        unconfirmed = self._unconfirmed
        while heap and (heap[0][0], heap[0][1]) < bar_key:
            rank, instance, round_ = heapq.heappop(heap)
            candidate = unconfirmed.pop((instance, round_), None)
            if candidate is None:
                continue  # stale heap entry
            newly.append(self._append_confirmed(candidate, now))
            self._mark_confirmed(instance, round_)
        return newly

    # ------------------------------------------------------------- inspection
    def current_bar(self) -> Optional[ConfirmationBar]:
        """Expose the bar for tests and diagnostics."""
        return self._compute_bar()

    def unconfirmed_blocks(self) -> List[Block]:
        return sorted(self._unconfirmed.values(), key=ordering_key)


class ScanDrainDynamicOrderer(DynamicOrderer):
    """Reference drain: re-``min()`` over the unconfirmed set per confirmation.

    This is the original (pre-heap, pre-incremental-bar) implementation,
    O(k²) for a k-block drain with an O(m) bar recomputation per partial
    commit.  It is kept as the single pinned baseline for the equivalence
    property tests and the drain micro-benchmark; production code should
    always use :class:`DynamicOrderer`.
    """

    def _drain(self, now: float) -> List[ConfirmedBlock]:
        bar = self._compute_bar()
        if bar is None:
            return []
        newly: List[ConfirmedBlock] = []
        while self._unconfirmed:
            candidate_key = min(
                self._unconfirmed, key=lambda k: ordering_key(self._unconfirmed[k])
            )
            candidate = self._unconfirmed[candidate_key]
            if not bar.admits(candidate):
                break
            del self._unconfirmed[candidate_key]
            newly.append(self._append_confirmed(candidate, now))
            self._mark_confirmed(candidate_key[0], candidate_key[1])
        return newly
