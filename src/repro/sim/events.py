"""Event queue primitives for the discrete-event simulator.

The queue is the hottest data structure in a DES run (one push/pop per
message delivery and per timer), so it is built for allocation thrift:

* entries are plain tuples ``(time, seq, ...)`` so ordering is decided by
  C-level tuple comparison instead of a Python ``__lt__`` per sift step;
* cancellable events are slim ``__slots__`` objects (no dataclass protocol);
* fire-and-forget deliveries skip the :class:`Event` wrapper entirely via
  :meth:`EventQueue.push_call`, which stores the callable and its three
  arguments directly in the entry tuple — no closure, no handle.

Events are ordered by ``(time, seq)`` so that two events scheduled for the
same instant fire in scheduling order, keeping runs deterministic.

**Two-tier calendar queue.**  A saturated n=128 WAN run keeps ~48 k
deliveries in flight, and a binary heap that deep pays a cache-missing
``log n`` sift per pop.  The queue therefore splits the timeline into
buckets of :data:`BUCKET_SECONDS`:

* the *near* tier is one small binary heap;
* the *far* tier is a dict ``bucket index -> unsorted list`` plus a tiny
  heap of the occupied bucket indices.

Invariant: the near tier holds exactly the entries whose bucket is ``<=``
the current bucket; every far list is unsorted and belongs to a later
bucket.  A far push is an O(1) ``list.append``; when the near tier runs dry
the earliest far bucket is ``heapify``-ed into it, so every pop is a
``heappop`` on the few hundred entries of one bucket.  Buckets are disjoint
time ranges and ``(time, seq)`` decides the order inside one, so the pop
order is exactly that of a single heap.  A queue-level cancel takes a far
entry out of its list at once (a cancelled 10 s view-change timer would
otherwise sit there for 10 s); near entries are discarded when popped.

The bucket width is a constant, not an option: it only has to be well under
one network delay (so in-flight traffic lands in the far tier) and wide
enough to hold more than a handful of events; measured wall time is flat
from 0.06 ms to 4 ms, so there is nothing to tune.
"""

# staticcheck: hot-path
from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, List, Optional, Sequence

#: width of one calendar bucket, in simulated seconds
BUCKET_SECONDS = 0.001
_BUCKETS_PER_SECOND = 1.0 / BUCKET_SECONDS
_INFINITY = float("inf")


class Event:
    """A scheduled, cancellable event handle.

    ``popped`` is set by the queue when the event is handed to the simulator;
    a late ``cancel()`` on a popped event must not touch the live-event
    count.  ``live`` tracks whether the event still counts toward the owning
    queue's live total; it is cleared exactly once, whichever happens first:
    queue-level cancel, delivery, or lazy discard of a directly-cancelled
    event.

    Cancelling drops ``callback``, so a cancelled event no longer keeps the
    timer closure and everything that closure captured alive.  Nothing calls
    a cancelled event, so nothing reads the field again.  A queue-level
    cancel (:meth:`EventQueue.cancel`) of a far-tier entry also takes the
    entry out of its bucket; a direct ``cancel()``, or a cancel in the near
    tier, leaves the entry where it is until the queue reaches it.
    """

    __slots__ = ("time", "seq", "callback", "label", "cancelled", "popped", "live")

    def __init__(self, time: float, seq: int, callback: Callable[[], None], label: str = "") -> None:
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[[], None]] = callback
        self.label = label
        self.cancelled = False
        self.popped = False
        self.live = True

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped; release the callback."""
        self.cancelled = True
        self.callback = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state}, label={self.label!r})"


class EventQueue:
    """A cancellable priority queue of scheduled work.

    Two entry kinds share the queue (and one ``seq`` counter, so cross-kind
    FIFO ties stay deterministic):

    * ``(time, seq, Event)`` — cancellable, pushed by :meth:`push`;
    * ``(time, seq, fn, a, b, c)`` — a direct call ``fn(a, b, c)``, pushed by
      :meth:`push_call`; never cancellable, used for message deliveries.

    ``seq`` is unique, so tuple comparison never reaches the third element.

    The tier fields are private to this module and the
    :meth:`~repro.sim.simulator.Simulator.run` loop; everything else goes
    through the methods (enforced by a test).
    """

    def __init__(self) -> None:
        #: near tier: heap of every entry with bucket <= ``_current``.  The
        #: list object never changes, so the run loop may hold on to it.
        self._near: List[tuple] = []
        self._current = -1
        #: far tier: later bucket -> its entries, in push order
        self._far: Dict[int, List[tuple]] = {}
        #: heap of the keys of ``_far``, plus the indices of buckets that
        #: :meth:`cancel` emptied (skipped by :meth:`_refill`)
        self._far_buckets: List[int] = []
        self._counter = itertools.count()
        self._live = 0

    def push(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        event = Event(time, next(self._counter), callback, label)
        self._insert((time, event.seq, event))
        return event

    def push_call(self, time: float, fn: Callable[..., None], a: Any, b: Any, c: Any) -> None:
        """Schedule ``fn(a, b, c)`` at ``time`` with no cancellation handle."""
        self._insert((time, next(self._counter), fn, a, b, c))

    def push_calls(
        self, times: Sequence[float], fn: Callable[..., None], a: Any, bs: Sequence[Any], c: Any
    ) -> None:
        """Schedule ``fn(a, b, c)`` at ``time`` for each pair of ``zip(times, bs)``.

        The transport's one delivery sink, for a single unicast as for a
        whole fan-out: equal to one :meth:`push_call` per pair, in order,
        with the per-call work hoisted out of the loop (``_insert`` is
        repeated inline for that).  ``bs`` is as long as ``times``.  Nothing
        is scheduled if any time is non-finite.

        A one-pair batch is the common call (every unicast), so the per-call
        cost stays in bytecode: the finiteness test compares the sum rather
        than calling ``math.isfinite``, and the loop indexes ``bs`` rather
        than allocating a ``zip``.
        """
        total = sum(times)  # one NaN or infinity poisons the sum
        if not -_INFINITY < total < _INFINITY:
            raise ValueError(f"event times must be finite, got {list(times)!r}")
        current = self._current
        far = self._far
        seq = self._counter
        index = 0
        for time in times:
            bucket = int(time * _BUCKETS_PER_SECOND)
            if bucket <= current:
                heapq.heappush(self._near, (time, next(seq), fn, a, bs[index], c))
            else:
                entries = far.get(bucket)
                if entries is None:
                    far[bucket] = [(time, next(seq), fn, a, bs[index], c)]
                    heapq.heappush(self._far_buckets, bucket)
                else:
                    entries.append((time, next(seq), fn, a, bs[index], c))
            index += 1
        self._live += index

    def _insert(self, entry: tuple) -> None:
        try:
            bucket = int(entry[0] * _BUCKETS_PER_SECOND)
        except (OverflowError, ValueError):  # infinity, NaN: no bucket
            raise ValueError(f"event time must be finite, got {entry[0]!r}") from None
        if bucket <= self._current:
            heapq.heappush(self._near, entry)
        else:
            entries = self._far.get(bucket)
            if entries is None:
                self._far[bucket] = [entry]
                heapq.heappush(self._far_buckets, bucket)
            else:
                entries.append(entry)
        self._live += 1

    def _refill(self) -> bool:
        """Move the earliest populated far bucket into the (empty) near tier.

        :meth:`cancel` drops a far list once its last entry is cancelled
        but leaves the bucket index in ``_far_buckets`` (taking it out of
        the middle of a heap costs O(k)), and a later push into that bucket
        indexes it a second time.  Indices without a list are skipped, so
        ``_current`` only ever lands on a bucket that still has entries:
        landing on an emptied one would send every later push at or below
        it into the near heap.  Returns ``False`` when no populated bucket
        is left.
        """
        far = self._far
        buckets = self._far_buckets
        while buckets:
            bucket = heapq.heappop(buckets)
            entries = far.pop(bucket, None)
            if entries is not None:
                self._current = bucket
                near = self._near
                near.extend(entries)
                heapq.heapify(near)
                return True
        return False

    def _forget(self, event: Event) -> None:
        """Remove ``event`` from the live count exactly once.

        Events can leave the live set three ways — queue-level cancel,
        delivery via ``pop``, or lazy discard after a *direct*
        ``Event.cancel()`` (timers cancel their events without going through
        the queue) — and the ``live`` flag guarantees each is counted once.
        """
        if event.live:
            event.live = False
            self._live -= 1

    def pop(self) -> Optional[Event]:
        """Pop the earliest non-cancelled event, or ``None`` if empty.

        Direct-call entries are wrapped into a fired-once :class:`Event` so
        callers see one uniform handle type.  The simulator's run loop reads
        the near tier directly and never pays for this wrapper.
        """
        near = self._near
        while near or self._refill():
            entry = heapq.heappop(near)
            payload = entry[2]
            if payload.__class__ is not Event:
                self._live -= 1
                fn, a, b, c = entry[2], entry[3], entry[4], entry[5]
                wrapper = Event(entry[0], entry[1], lambda: fn(a, b, c))
                wrapper.live = False
                wrapper.popped = True
                return wrapper
            self._forget(payload)
            if payload.cancelled:
                continue
            payload.popped = True
            return payload
        return None

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the earliest live event without popping.

        Cancelled heads are discarded on the way, across both tiers, so the
        answer is always a time at which something will fire.
        """
        near = self._near
        while near or self._refill():
            payload = near[0][2]
            if payload.__class__ is Event and payload.cancelled:
                self._forget(heapq.heappop(near)[2])
                continue
            return near[0][0]
        return None

    def cancel(self, event: Event) -> None:
        """Cancel ``event``; a far-tier entry leaves its bucket right away.

        A cancelled round timer would otherwise wait out the whole
        view-change timeout in its far list.  Near-tier entries stay in the
        heap and are discarded lazily when popped.  Either way the live
        count drops now, and the pop order of every other entry is
        unchanged.
        """
        if event.popped or event.cancelled:
            return  # already delivered (or already cancelled): nothing is live
        event.cancel()
        self._forget(event)
        bucket = int(event.time * _BUCKETS_PER_SECOND)
        if bucket > self._current:
            entries = self._far[bucket]
            entries.remove((event.time, event.seq, event))
            if not entries:
                del self._far[bucket]

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
