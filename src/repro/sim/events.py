"""Event queue primitives for the discrete-event simulator.

The queue is the hottest data structure in a DES run (one push/pop per
message delivery and per timer), so it is built for allocation thrift:

* entries are plain 6-tuples ``(time, seq, row, a, b, c)`` so ordering is
  decided by C-level tuple comparison instead of a Python ``__lt__``;
* a message delivery is ``(time, seq, row, sender, receiver, message)``:
  the run loop calls ``row[receiver](sender, message)``, where ``row`` is
  the transport's per-node handler list — no closure, no handle, no frame
  between the loop and the receiving replica;
* a cancellable timer is ``(time, seq, None, event, None, None)`` around a
  slim ``__slots__`` :class:`Event`.

Events are ordered by ``(time, seq)`` so that two events scheduled for the
same instant fire in scheduling order, keeping runs deterministic.

**Calendar queue.**  A saturated n=128 WAN run keeps ~48 k deliveries in
flight.  The queue splits the timeline into buckets of
:data:`BUCKET_SECONDS` and keeps three tiers:

* the *run*: the current bucket, sorted once in descending order when it is
  loaded, and consumed from the end with ``list.pop()``;
* the *side heap*: a small binary heap of the entries pushed at or below the
  current bucket after it was loaded (self-deliveries, zero-delay timers);
* the *far* tier: a dict ``bucket index -> unsorted list`` plus a tiny heap
  of the occupied bucket indices.

Invariant: the run and the side heap hold exactly the entries whose bucket
is ``<=`` the current bucket; every far list is unsorted and belongs to a
later bucket.  A far push is an O(1) ``list.append``.  When the run and the
side heap are both empty, the earliest far bucket is sorted into the run:
one ``list.sort`` of a few hundred tuples, whose first elements are all
floats, takes ``list.sort``'s float fast path instead of a generic rich
compare per heap sift.  The next entry is whichever of the run's last entry
and the side heap's head is smaller.  Buckets are disjoint time ranges and
``(time, seq)`` is unique, so the pop order is exactly that of a single
heap.  A queue-level cancel takes a far entry out of its list at once (a
cancelled 10 s view-change timer would otherwise sit there for 10 s);
entries in the run or the side heap are discarded when popped.

:func:`bucket_of` is the one bucketing rule.  :meth:`EventQueue.push_calls`
repeats it inline (it is the per-delivery path), and a test pins the two
together and against the run loop's horizon bucket.

The bucket width is a constant, not an option: it only has to be well under
one network delay (so in-flight traffic lands in the far tier) and wide
enough that a bucket holds more than a handful of events.  With the sorted
run, ``pbft-wan-n128`` took 26.3 and 23.4 s of wall time at 0.25 ms, 27.2
and 23.3 s at 1 ms, and 26.1 and 25.1 s at 4 ms (two interleaved runs each,
2-core x86-64 host, CPython 3.11): flat within the host's run-to-run
spread, so there is nothing to tune.
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


def bucket_of(time: float) -> int:
    """The calendar bucket of ``time``: the queue's one bucketing rule.

    Raises ``OverflowError`` or ``ValueError`` for a non-finite time.
    """
    return int(time * _BUCKETS_PER_SECOND)


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
    entry out of its bucket; a direct ``cancel()``, or a cancel of an entry
    at or below the current bucket, leaves the entry where it is until the
    queue reaches it.
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

    * ``(time, seq, None, event, None, None)`` — a cancellable timer, pushed
      by :meth:`push`;
    * ``(time, seq, row, a, b, c)`` — a direct call ``row[b](a, c)``, pushed
      by :meth:`push_calls`; never cancellable, used for message deliveries.

    ``seq`` is unique, so tuple comparison never reaches the third element.

    The tier fields are private to this module and the
    :meth:`~repro.sim.simulator.Simulator.run` loop; everything else goes
    through the methods (enforced by a test).
    """

    def __init__(self) -> None:
        #: the current bucket, sorted descending: its earliest entry is last.
        #: The list object never changes, so the run loop may hold on to it.
        self._near: List[tuple] = []
        #: heap of the entries pushed at or below ``_current`` after it was
        #: loaded.  The list object never changes either.
        self._side: List[tuple] = []
        self._current = -1
        #: far tier: later bucket -> its entries, in push order
        self._far: Dict[int, List[tuple]] = {}
        #: heap of the keys of ``_far``, plus the indices of buckets that
        #: :meth:`cancel` emptied (skipped by :meth:`_refill`)
        self._far_buckets: List[int] = []
        self._counter = itertools.count()
        self._live = 0

    def push(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        try:
            bucket = bucket_of(time)
        except (OverflowError, ValueError):  # infinity, NaN: no bucket
            raise ValueError(f"event time must be finite, got {time!r}") from None
        event = Event(time, next(self._counter), callback, label)
        entry = (time, event.seq, None, event, None, None)
        if bucket <= self._current:
            heapq.heappush(self._side, entry)
        else:
            entries = self._far.get(bucket)
            if entries is None:
                self._far[bucket] = [entry]
                heapq.heappush(self._far_buckets, bucket)
            else:
                entries.append(entry)
        self._live += 1
        return event

    def push_calls(
        self, times: Sequence[float], row: Sequence[Callable[[Any, Any], None]], a: Any,
        bs: Sequence[Any], c: Any,
    ) -> None:
        """Schedule ``row[b](a, c)`` at ``time`` for each pair of ``zip(times, bs)``.

        The transport's one delivery sink, for a single unicast as for a
        whole fan-out: ``row`` is the transport's handler row, ``a`` the
        sender, ``bs`` the receivers and ``c`` the message.  ``row[b]`` is
        read when the entry fires, so a handler change before then is seen.
        The placement is :meth:`push`'s, repeated inline with the per-call
        work hoisted out of the loop.  ``bs`` is as long as ``times``.
        Nothing is scheduled if any time is non-finite.

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
            bucket = int(time * _BUCKETS_PER_SECOND)  # bucket_of, inline
            if bucket <= current:
                heapq.heappush(self._side, (time, next(seq), row, a, bs[index], c))
            else:
                entries = far.get(bucket)
                if entries is None:
                    far[bucket] = [(time, next(seq), row, a, bs[index], c)]
                    heapq.heappush(self._far_buckets, bucket)
                else:
                    entries.append((time, next(seq), row, a, bs[index], c))
            index += 1
        self._live += index

    def _refill(self) -> bool:
        """Sort the earliest populated far bucket into the (empty) run.

        Called only when the run and the side heap are both empty.
        :meth:`cancel` drops a far list once its last entry is cancelled
        but leaves the bucket index in ``_far_buckets`` (taking it out of
        the middle of a heap costs O(k)), and a later push into that bucket
        indexes it a second time.  Indices without a list are skipped, so
        ``_current`` only ever lands on a bucket that still has entries:
        landing on an emptied one would send every later push at or below
        it into the side heap.  Returns ``False`` when no populated bucket
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
                near.sort(reverse=True)
                return True
        return False

    def _pop_entry(self) -> Optional[tuple]:
        """Pop the earliest live entry, or ``None`` when nothing is left.

        Settles the live count for what it pops and discards; a timer comes
        back marked ``popped``.
        """
        near = self._near
        side = self._side
        while near or side or self._refill():
            if side and not (near and near[-1] < side[0]):
                entry = heapq.heappop(side)
            else:
                entry = near.pop()
            if entry[2] is not None:
                self._live -= 1
                return entry
            event = entry[3]
            self._forget(event)
            if event.cancelled:
                continue
            event.popped = True
            return entry
        return None

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
        the tiers directly and never pays for this wrapper.
        """
        entry = self._pop_entry()
        if entry is None:
            return None
        time, seq, row, a, b, c = entry
        if row is None:
            return a
        wrapper = Event(time, seq, lambda: row[b](a, c))
        wrapper.live = False
        wrapper.popped = True
        return wrapper

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the earliest live event without popping.

        Cancelled heads are discarded on the way, across every tier, so the
        answer is always a time at which something will fire.  The earliest
        entry is the run's *last* one or the side heap's *first* one.
        """
        near = self._near
        side = self._side
        while near or side or self._refill():
            from_side = side and not (near and near[-1] < side[0])
            entry = side[0] if from_side else near[-1]
            if entry[2] is None and entry[3].cancelled:
                self._forget((heapq.heappop(side) if from_side else near.pop())[3])
                continue
            return entry[0]
        return None

    def cancel(self, event: Event) -> None:
        """Cancel ``event``; a far-tier entry leaves its bucket right away.

        A cancelled round timer would otherwise wait out the whole
        view-change timeout in its far list.  Entries at or below the
        current bucket stay where they are and are discarded lazily when
        popped.  Either way the live count drops now, and the pop order of
        every other entry is unchanged.
        """
        if event.popped or event.cancelled:
            return  # already delivered (or already cancelled): nothing is live
        event.cancel()
        self._forget(event)
        bucket = bucket_of(event.time)
        if bucket > self._current:
            entries = self._far[bucket]
            entries.remove((event.time, event.seq, None, event, None, None))
            if not entries:
                del self._far[bucket]

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
