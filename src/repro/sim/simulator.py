"""Discrete-event simulator core.

Timers go through :meth:`Simulator.schedule_at` and
:meth:`Simulator.schedule_after` (cancellable, past-time guarded); message
deliveries go through ``Simulator.push_calls``, the event queue's batched,
handle-free entry point that the transport uses as its one delivery sink.
"""

# staticcheck: hot-path
from __future__ import annotations

import gc
import heapq
import random
from math import isfinite
from typing import Callable, Optional

from repro.sim.clock import VirtualClock
from repro.sim.events import Event, EventQueue
from repro.sim.trace import TraceRecorder


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
        self._stopped = False
        #: the network's delivery sink: schedule ``fn(a, b, c)`` at
        #: ``times[i]`` for each ``b = bs[i]``, with no past-time guard (the
        #: transport never computes an arrival before now)
        self.push_calls = self.queue.push_calls

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

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stopped = True

    # -------------------------------------------------------------- run loop
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process events until the queue drains, ``until`` passes, or limits hit.

        Returns the clock value when the loop stops.

        The loop works on the queue's tiers directly: it drains the near
        heap, whose entries are either ``(time, seq, Event)`` or ``(time,
        seq, fn, a, b, c)`` direct calls (see
        :class:`~repro.sim.events.EventQueue`), dispatching them inline to
        avoid a Python frame per event, and has the queue load the next
        bucket when the near heap runs dry.  The horizon is checked by
        peeking, so nothing is ever popped only to be pushed back.

        The cyclic garbage collector is off while the loop runs and is put
        back the way it was on the way out, also when a callback raises.
        The loop builds no reference cycles (reference counting frees every
        entry and message the moment it is dropped), but the collector would
        keep re-traversing the tens of thousands of in-flight entries.
        """
        self._stopped = False
        queue = self.queue
        near = queue._near
        refill = queue._refill
        clock = self.clock
        heappop = heapq.heappop
        processed = 0
        events_class = Event
        bounded = until is not None
        if bounded and not isfinite(until):
            raise ValueError(f"until must be finite, got {until!r}")
        at_horizon = False
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while not self._stopped:
                if not near and not refill():
                    break
                if bounded and near[0][0] > until:
                    at_horizon = True
                    break
                entry = heappop(near)
                payload = entry[2]
                if payload.__class__ is events_class:
                    queue._forget(payload)
                    if payload.cancelled:
                        continue
                    clock._now = entry[0]
                    payload.popped = True
                    payload.callback()
                else:
                    clock._now = entry[0]
                    queue._live -= 1
                    payload(entry[3], entry[4], entry[5])
                processed += 1
                if max_events is not None and processed >= max_events:
                    break
        finally:
            if gc_was_enabled:
                gc.enable()
            # Batched: one attribute store per run() instead of one per event.
            self._events_processed += processed
        if at_horizon:
            clock.advance_to(until)
            return until
        # Fast-forward to the horizon only when the queue truly drained:
        # breaking on ``max_events`` (or ``stop()``) leaves live events behind,
        # and jumping the clock past them would make a later ``run()`` process
        # them "in the past".
        if bounded and clock._now < until and not self._stopped and not queue:
            clock.advance_to(until)
        return clock._now

    def step(self) -> bool:
        """Process exactly one event; returns False when the queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        event.callback()
        self._events_processed += 1
        return True
