"""Global ordering layer.

Two implementations of the :class:`GlobalOrderer` interface live elsewhere
(:mod:`repro.core.predetermined` and :mod:`repro.core.dqbft_ordering`); this
module defines the interface, the confirmed-block record, and Ladon's
:class:`DynamicOrderer`, a faithful implementation of Algorithm 1.

Two hot-path properties of :class:`DynamicOrderer` (both pinned against a
verbatim O(k²)-drain, O(m)-bar reference orderer kept with the tests, by
equivalence property tests):

* the **confirmation bar** — the minimum ordering key over the per-instance
  last-partially-confirmed blocks — is maintained *incrementally* in a lazy
  min-heap, so each partial commit pays O(log m) instead of rebuilding a
  list of m blocks and scanning it;
* memory is **O(active window)**: the unconfirmed set is one heap entry per
  pending block and nothing else; per-instance round buffers hold only the
  ranks of out-of-order arrivals above the partially-confirmed prefix (an
  in-order block never enters one, and a buffer that drains gives its hash
  table back, so an in-order instance costs an empty dict); duplicate
  detection reads those buffers and the prefix cursor; and the lazy bar
  heap is rebuilt from the live ranks once it passes ``2m + 16`` entries,
  so a straggler holding the bar for any length of time costs at most that
  many bar entries, not one per rank change.  Held-bar state is therefore
  ``pending blocks + O(m)``.

Every orderer shares one rule for what it holds (see
:class:`GlobalOrderer`).  A non-retaining orderer (``retain_blocks=False``,
every replica but the observer) holds neither its pending blocks nor its
confirmed history as :class:`~repro.core.block.Block` objects, only the
fields of the compact audit fingerprint, so a straggler's backlog is paid
in full once, at the observer, which retains everything (experiment
outputs are unchanged).
"""

# staticcheck: hot-path
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.block import Block, ordering_key
from repro.core.frozen import fast_init


@fast_init
@dataclass(frozen=True, slots=True)
class ConfirmedBlock:
    """A globally confirmed block with its global ordering index ``sn``."""

    block: Block
    sn: int
    confirmed_at: float


@fast_init
@dataclass(frozen=True, slots=True)
class ConfirmationBar:
    """The confirmation bar: the lowest ordering key future blocks can take."""

    rank: int
    instance: int

    def admits(self, block: Block) -> bool:
        """True when ``block ≺ bar`` and so the block can be confirmed."""
        return ordering_key(block) < (self.rank, self.instance)


#: entries the lazy bar heap may hold beyond ``2m`` before it is rebuilt
_BAR_HEAP_SLACK = 16

#: compact audit fingerprint of one confirmed block:
#: ``(sn, instance, round, rank, digest)``
ConfirmedFingerprint = Tuple[int, int, int, int, str]

#: what an orderer holds for one pending block: ``(rank, instance, round,
#: held)``, ``held`` being the block itself or only its payload digest
PendingEntry = Tuple[int, int, int, Any]

#: what a confirmation yields: a :class:`ConfirmedBlock` from a retaining
#: orderer, its :data:`ConfirmedFingerprint` from a non-retaining one
Confirmation = Union[ConfirmedBlock, ConfirmedFingerprint]


def _fingerprint(confirmed: ConfirmedBlock) -> ConfirmedFingerprint:
    block = confirmed.block
    return (confirmed.sn, block.instance, block.round, block.rank, block.payload_digest)


class GlobalOrderer:
    """Interface of the global ordering layer (paper Sec. 3.3).

    ``add_partially_committed`` feeds the output of the partial ordering
    layer; the orderer returns the (possibly empty) list of newly confirmed
    blocks, already assigned consecutive global ordering indices.

    Implementations share one rule for what they hold, keyed on
    ``retain_blocks``.  A pending block is held as the
    :data:`PendingEntry` ``(rank, instance, round, held)`` built by
    :meth:`_pending_entry`, and confirmed by :meth:`_append_confirmed`.
    With ``retain_blocks=True`` (the default) ``held`` is the
    :class:`Block`, a confirmation yields a :class:`ConfirmedBlock`, and
    the full history is exposed through :attr:`confirmed`.  With
    ``retain_blocks=False`` ``held`` is the block's payload digest, a
    confirmation yields its :data:`ConfirmedFingerprint`, and only those
    fingerprints are kept: the orderer never keeps a block alive.  The
    calls that hand out blocks (:attr:`confirmed` and the subclasses'
    inspection helpers) then raise, so that a forgotten caller fails
    loudly instead of silently reading an empty history.
    """

    def __init__(self, retain_blocks: bool = True) -> None:
        self.retain_blocks = retain_blocks
        self._confirmed: List[ConfirmedBlock] = []
        self._fingerprints: List[ConfirmedFingerprint] = []
        self._confirmed_count = 0

    def add_partially_committed(self, block: Block, now: float) -> List[Confirmation]:
        raise NotImplementedError

    # ------------------------------------------------------ held-entry rule
    def _pending_entry(self, block: Block) -> PendingEntry:
        """What this orderer holds for ``block`` until it is confirmed."""
        return (
            block.rank,
            block.instance,
            block.round,
            block if self.retain_blocks else block.payload_digest,
        )

    def _append_confirmed(self, entry: PendingEntry, now: float) -> Confirmation:
        """Assign the next sn to a pending ``entry`` and record it."""
        sn = self._confirmed_count
        self._confirmed_count = sn + 1
        if self.retain_blocks:
            confirmed = ConfirmedBlock(block=entry[3], sn=sn, confirmed_at=now)
            self._confirmed.append(confirmed)
            return confirmed
        rank, instance, round_, digest = entry
        fingerprint = (sn, instance, round_, rank, digest)
        self._fingerprints.append(fingerprint)
        return fingerprint

    def _require_blocks(self, call: str) -> None:
        """Refuse ``call``, which hands out blocks, on a non-retaining orderer."""
        if not self.retain_blocks:
            raise RuntimeError(
                f"{call} needs blocks, but this orderer runs with "
                "retain_blocks=False (bounded memory) and holds none; use "
                "confirmed_count / pending_count / confirmed_fingerprints() instead"
            )

    # ------------------------------------------------------ confirmed history
    @property
    def confirmed(self) -> Tuple[ConfirmedBlock, ...]:
        """The full confirmed history, copied on every call."""
        self._require_blocks("confirmed")
        return tuple(self._confirmed)

    @property
    def confirmed_count(self) -> int:
        """Number of confirmed blocks — O(1), never copies history."""
        return self._confirmed_count

    def confirmed_fingerprints(self) -> List[ConfirmedFingerprint]:
        """Compact (sn, instance, round, rank, digest) log for the auditor."""
        if self.retain_blocks:
            return [_fingerprint(c) for c in self._confirmed]
        return list(self._fingerprints)

    def fingerprints_of(
        self, confirmations: Sequence[Confirmation]
    ) -> Sequence[ConfirmedFingerprint]:
        """The fingerprints of confirmations this orderer just returned."""
        if self.retain_blocks:
            return [_fingerprint(c) for c in confirmations]
        return confirmations

    @property
    def pending_count(self) -> int:
        """Number of partially committed but not yet confirmed blocks."""
        raise NotImplementedError


class DynamicOrderer(GlobalOrderer):
    """Ladon's dynamic global ordering (Algorithm 1).

    The orderer keeps, per instance, the rank of the last *partially
    confirmed* block — a block is partially confirmed only when every
    earlier round of its instance is partially committed — plus the set
    ``S`` of unconfirmed blocks.  When fed a new block it advances the bar
    (the lowest last-partially-confirmed ordering key across instances,
    maintained incrementally), then drains every unconfirmed block below the
    bar in ``≺`` order.

    ``S`` is one min-heap of :data:`PendingEntry` tuples ``(rank, instance,
    round, held)``, so each confirmation is O(log k).  ``(rank, instance,
    round)`` is unique (duplicates never enter), so ``held`` is never
    compared.  The bar costs O(log m) amortised per partial commit: a lazy
    heap over the per-instance last-partially-confirmed keys, stale entries
    skipped on peek and the whole heap rebuilt from the live ranks whenever
    it grows past ``2m + _BAR_HEAP_SLACK`` entries.
    """

    def __init__(self, num_instances: int, retain_blocks: bool = True) -> None:
        if num_instances <= 0:
            raise ValueError("need at least one instance")
        super().__init__(retain_blocks=retain_blocks)
        self.num_instances = num_instances
        # Per instance: the ranks of blocks received above the contiguous
        # prefix, keyed by round (out-of-order arrivals wait here), and the
        # next round needed to extend that prefix.  Every round below
        # ``_next_round`` has been received, so these two also answer "seen
        # before?".
        self._by_instance: List[Dict[int, int]] = [{} for _ in range(num_instances)]
        self._next_round: List[int] = [1] * num_instances
        # The unconfirmed set S: a min-heap of pending entries.
        self._heap: List[PendingEntry] = []
        # ----- incremental bar state -----
        # Current last-partially-confirmed rank per instance (None = none yet),
        # a lazy min-heap of (rank, instance) with stale entries skipped at
        # peek time, and the count of instances contributing to the bar.
        self._bar_rank: List[Optional[int]] = [None] * num_instances
        self._bar_heap: List[Tuple[int, int]] = []
        self._bar_heap_limit = 2 * num_instances + _BAR_HEAP_SLACK
        self._bar_ready = 0

    # ------------------------------------------------------------ interface
    @property
    def pending_count(self) -> int:
        return len(self._heap)

    def add_partially_committed(self, block: Block, now: float) -> List[Confirmation]:
        instance = block.instance
        if instance >= self.num_instances:
            raise ValueError(
                f"block instance {instance} out of range (m={self.num_instances})"
            )
        round_ = block.round
        rounds = self._by_instance[instance]
        if round_ < self._next_round[instance] or round_ in rounds:
            return []  # duplicate delivery
        heapq.heappush(self._heap, self._pending_entry(block))
        if round_ == self._next_round[instance]:
            self._advance_partially_confirmed(instance, round_, block.rank)
        else:
            rounds[round_] = block.rank  # out of order: wait for the gap to fill
        bar_key = self._bar_key()
        # A pending entry compares below the 2-tuple bar key exactly when
        # its (rank, instance) does; ``held`` is never reached.
        if bar_key is None or not self._heap[0] < bar_key:
            return []  # the head is at or above the bar: nothing to drain
        return self._drain(now)

    # -------------------------------------------------------------- internals
    def _advance_partially_confirmed(self, instance: int, round_: int, rank: int) -> None:
        """Extend the contiguous prefix of partially confirmed blocks.

        ``round_`` is the prefix's next round and ``rank`` its block's rank;
        that block never enters the per-instance buffer.  Buffered
        successors are popped from it (their entries stay in the heap until
        confirmed); a buffer this empties gives its hash table back, since
        ``pop`` never shrinks one and every replica holds m buffers.  The
        bar heap learns the new last-partially-confirmed rank.
        """
        rounds = self._by_instance[instance]
        nxt = round_ + 1
        if rounds:
            while nxt in rounds:
                rank = rounds.pop(nxt)
                nxt += 1
            if not rounds:
                rounds.clear()
        self._next_round[instance] = nxt
        ranks = self._bar_rank
        if ranks[instance] is None:
            self._bar_ready += 1
        if ranks[instance] != rank:
            ranks[instance] = rank
            heap = self._bar_heap
            heapq.heappush(heap, (rank, instance))
            if len(heap) > self._bar_heap_limit:
                # A held bar pins its stale entries below the top: rebuild
                # from the live ranks (O(m), after >= m + slack pushes).
                heap[:] = [(r, i) for i, r in enumerate(ranks) if r is not None]
                heapq.heapify(heap)

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

    def _drain(self, now: float) -> List[Confirmation]:
        """Confirm every pending entry below the bar, in ``≺`` order."""
        bar_key = self._bar_key()
        if bar_key is None:
            return []
        newly: List[Confirmation] = []
        heap = self._heap
        while heap and heap[0] < bar_key:
            newly.append(self._append_confirmed(heapq.heappop(heap), now))
        return newly

    # ------------------------------------------------------------- inspection
    def current_bar(self) -> Optional[ConfirmationBar]:
        """Expose the bar for tests and diagnostics."""
        key = self._bar_key()
        return None if key is None else ConfirmationBar(rank=key[0], instance=key[1])

    def unconfirmed_blocks(self) -> List[Block]:
        """The unconfirmed set S in ``(rank, instance, round)`` order."""
        self._require_blocks("unconfirmed_blocks()")
        return [entry[3] for entry in sorted(self._heap)]
