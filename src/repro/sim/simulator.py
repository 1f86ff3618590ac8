"""Discrete-event simulator core.

Timers go through :meth:`Simulator.schedule_at` and
:meth:`Simulator.schedule_after` (cancellable, past-time guarded); message
deliveries go through ``Simulator.push_calls``, the event queue's batched,
handle-free entry point that the transport uses as its one delivery sink.
A delivery entry carries the transport's handler row, and the run loop
calls the receiver's handler from it directly.
"""

# staticcheck: hot-path
from __future__ import annotations

import gc
import heapq
import random
from math import isfinite
from typing import Callable, Optional, TYPE_CHECKING

from repro.sim.clock import VirtualClock
from repro.sim.events import Event, EventQueue, bucket_of
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import NetworkStats


class Simulator:
    """Schedules callbacks on a virtual timeline and runs them in order.

    The simulator is intentionally small: protocol behaviour lives in the
    nodes; the network translates sends into scheduled deliveries.  The same
    simulator instance is shared by the network, every node, and the fault
    injectors so that all of them observe one consistent clock.
    """

    def __init__(self, seed: int = 0, trace: Optional[TraceRecorder] = None) -> None:
        self.clock = VirtualClock()
        self.queue = EventQueue()
        self.rng = random.Random(seed)
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self._events_processed = 0
        #: the network's delivery sink: schedule ``row[b](a, c)`` at
        #: ``times[i]`` for each ``b = bs[i]``, with no past-time guard (the
        #: transport never computes an arrival before now)
        self.push_calls = self.queue.push_calls
        #: the transport statistics whose ``messages_delivered`` counts the
        #: deliveries this simulator runs; set by the network built on it
        self.delivery_stats: Optional["NetworkStats"] = None

    # ------------------------------------------------------------------ time
    def now(self) -> float:
        return self.clock._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    # ------------------------------------------------------------ scheduling
    def schedule_at(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self.clock._now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now()})")
        return self.queue.push(time, callback, label)

    def schedule_after(self, delay: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.queue.push(self.clock._now + delay, callback, label)

    def cancel(self, event: Event) -> None:
        if event.popped or event.cancelled:
            return  # no-op cancels stay invisible (already fired/cancelled)
        if self.trace.enabled:
            # Effective cancellations are part of the schedule witness: a
            # replay that cancels a different event set is a divergence.
            self.trace.record(
                self.clock._now, "cancel", None, label=event.label, at=event.time
            )
        self.queue.cancel(event)

    # -------------------------------------------------------------- run loop
    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains or ``until`` passes.

        Returns the clock value when the loop stops.

        The loop works on the queue's tiers directly (see
        :class:`~repro.sim.events.EventQueue`): it takes the earlier of the
        sorted run's last entry and the side heap's head, unpacks it once,
        and either calls ``row[receiver](sender, message)`` — a delivery
        goes straight to the receiver's handler — or fires a timer.  When
        both tiers are empty the queue sorts the next bucket into the run.

        The horizon is checked only in buckets at or past ``until``'s
        bucket: every entry of an earlier bucket lies at or below ``until``.
        The one entry found past the horizon goes back to the side heap.
        The live count, the event count and the transport's
        ``messages_delivered`` are settled once, when the loop ends.

        The cyclic garbage collector is off while the loop runs and is put
        back the way it was on the way out, also when a callback raises.
        The loop builds no reference cycles (reference counting frees every
        entry and message the moment it is dropped), but the collector would
        keep re-traversing the tens of thousands of in-flight entries.
        """
        queue = self.queue
        near = queue._near
        side = queue._side
        refill = queue._refill
        clock = self.clock
        heappop = heapq.heappop
        bounded = until is not None
        if bounded:
            if not isfinite(until):
                raise ValueError(f"until must be finite, got {until!r}")
            horizon_bucket = bucket_of(until)
        checking = bounded and queue._current >= horizon_bucket
        processed = fired = forgotten = 0
        at_horizon = False
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while True:
                if side:
                    if near and near[-1] < side[0]:
                        entry = near.pop()
                    else:
                        entry = heappop(side)
                elif near:
                    entry = near.pop()
                elif refill():
                    checking = bounded and queue._current >= horizon_bucket
                    continue
                else:
                    break
                time, _seq, row, a, b, c = entry
                if checking and time > until:
                    heapq.heappush(side, entry)
                    at_horizon = True
                    break
                if row is None:  # a timer: ``a`` is its Event
                    if a.live:
                        a.live = False
                        forgotten += 1
                    if a.cancelled:
                        continue
                    clock._now = time
                    a.popped = True
                    fired += 1
                    processed += 1
                    a.callback()
                else:
                    clock._now = time
                    processed += 1
                    row[b](a, c)
        finally:
            if gc_was_enabled:
                gc.enable()
            delivered = processed - fired
            queue._live -= delivered + forgotten
            self._events_processed += processed
            if delivered and self.delivery_stats is not None:
                self.delivery_stats.messages_delivered += delivered
        if at_horizon:
            clock.advance_to(until)
            return until
        if bounded and clock._now < until:
            clock.advance_to(until)
        return clock._now

    def step(self) -> bool:
        """Process exactly one event; returns False when the queue is empty."""
        entry = self.queue._pop_entry()
        if entry is None:
            return False
        time, _seq, row, a, b, c = entry
        self.clock.advance_to(time)
        self._events_processed += 1
        if row is None:
            a.callback()
        else:
            if self.delivery_stats is not None:
                self.delivery_stats.messages_delivered += 1
            row[b](a, c)
        return True
