"""Real-clock runtime: the asyncio wall-clock backend.

:class:`RealtimeRuntime` runs the same sans-I/O replicas in wall-clock time:
timers become real sleeps, and message passing goes through in-process
queues with *optional artificial latency* drawn from the same
:class:`~repro.sim.latency.LatencyModel` the DES backend uses (so a
``TopologySpec`` means the same thing on both backends).

Design notes:

* The transport reuses :class:`~repro.sim.network.Network` verbatim — the
  network only needs ``now()``, ``push_calls()`` (its one delivery sink: a
  fan-out's arrival times, pushed in order, each calling the receiver's
  slot of the network's handler row), ``delivery_stats`` (where the
  scheduler counts what it delivers) and a seeded ``rng`` from its
  scheduler, which this runtime provides.  Drop/duplicate/partition
  semantics, uplink serialisation, and byte accounting are therefore
  *identical* on both backends by construction.
* Ordering: rather than handing every callback to ``loop.call_at`` (whose
  same-deadline tie-break is unspecified), the runtime keeps its own
  ``(time, seq)`` heap — the exact ordering contract of the DES event queue
  — and arms a single asyncio timer for the earliest deadline.  Callbacks
  that are due fire in ``(time, seq)`` order, which is what makes a
  zero-latency realtime run confirm the same block sequence as a DES run.
* ``time_scale`` maps virtual seconds onto wall seconds (``0.1`` runs a
  10-second scenario in one wall second) so tests can exercise the backend
  quickly.  All timestamps exposed to protocol code stay in virtual seconds.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import random
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.runtime.base import Runtime
from repro.sim.latency import LatencyModel
from repro.sim.network import Network, NetworkConfig, NetworkStats
from repro.sim.trace import TraceRecorder


class ScheduledCall:
    """A cancellable entry in the realtime scheduler's heap."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., None], args: Tuple) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class RealtimeRuntime(Runtime):
    """Wall-clock execution on an asyncio event loop."""

    kind = "realtime"

    def __init__(
        self,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        config: Optional[NetworkConfig] = None,
        trace: Optional[TraceRecorder] = None,
        time_scale: float = 1.0,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.rng = random.Random(seed)
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.time_scale = time_scale
        #: set by the network to its stats: ``_deliver`` counts into it
        self.delivery_stats: Optional[NetworkStats] = None
        self.network = Network(self, latency=latency, config=config)
        self.stats = self.network.stats
        self.send = self.network.send
        self.multicast = self.network.multicast
        self.register = self.network.register
        self.unregister = self.network.unregister
        self.registered_nodes = self.network.registered_nodes
        self.set_partition = self.network.set_partition
        self.heal_partition = self.network.heal_partition
        self.set_latency_scale = self.network.set_latency_scale
        self.set_drop_probability = self.network.set_drop_probability
        self.set_link_filter = self.network.set_link_filter
        self.set_delivery_perturbation = self.network.set_delivery_perturbation
        self._heap: List[Tuple[float, int, ScheduledCall]] = []
        self._seq = itertools.count()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._start: float = 0.0
        self._armed: Optional[asyncio.TimerHandle] = None
        self._armed_for: Optional[float] = None
        self._finished: Optional[asyncio.Event] = None
        self._until: Optional[float] = None
        self._error: Optional[BaseException] = None
        self._events_processed = 0
        self._final_now = 0.0

    # ------------------------------------------------------------------ time
    def now(self) -> float:
        if self._loop is None:
            return self._final_now
        return (self._loop.time() - self._start) / self.time_scale

    # ------------------------------------------------------------ scheduling
    def schedule_at(self, time: float, callback: Callable[[], None], label: str = "") -> ScheduledCall:
        if time < 0:
            raise ValueError(f"cannot schedule before the run starts ({time} < 0)")
        return self._push(time, callback, ())

    def schedule_after(self, delay: float, callback: Callable[[], None], label: str = "") -> ScheduledCall:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self._push(self.now() + delay, callback, ())

    def push_calls(
        self, times: Sequence[float], row: Sequence[Callable[[Any, Any], None]], a: Any,
        bs: Sequence[Any], c: Any,
    ) -> None:
        """The network's delivery sink: ``row[b](a, c)`` at each ``times[i]``."""
        for time, b in zip(times, bs):
            self._push(time, self._deliver, (row, a, b, c))

    def _deliver(self, row: Sequence[Callable[[Any, Any], None]], a: Any, b: Any, c: Any) -> None:
        self.delivery_stats.messages_delivered += 1
        row[b](a, c)

    def _push(self, time: float, fn: Callable[..., None], args: Tuple) -> ScheduledCall:
        item = ScheduledCall(time, next(self._seq), fn, args)
        heapq.heappush(self._heap, (time, item.seq, item))
        if self._loop is not None and (self._armed_for is None or time < self._armed_for):
            self._arm()
        return item

    # ------------------------------------------------------------- internals
    def _arm(self) -> None:
        """(Re-)arm the single asyncio timer for the earliest heap deadline."""
        if self._armed is not None:
            self._armed.cancel()
            self._armed = None
            self._armed_for = None
        if self._loop is None or not self._heap:
            return
        head_time = self._heap[0][0]
        deadline = self._start + head_time * self.time_scale
        loop_now = self._loop.time()
        self._armed_for = head_time
        self._armed = self._loop.call_at(max(deadline, loop_now), self._drain_due)

    def _drain_due(self) -> None:
        """Fire every due entry in deterministic ``(time, seq)`` order."""
        self._armed = None
        self._armed_for = None
        heap = self._heap
        while heap and self._loop is not None:
            virtual_now = (self._loop.time() - self._start) / self.time_scale
            if heap[0][0] > virtual_now:
                break
            item = heapq.heappop(heap)[2]
            if item.cancelled:
                continue
            self._events_processed += 1
            try:
                item.fn(*item.args)
            except BaseException as exc:  # noqa: BLE001 - re-raised from run()
                # asyncio would swallow the exception into its logger and the
                # disarmed scheduler would idle to the horizon; instead end
                # the run and propagate from run(), like the DES backend.
                self._error = exc
                self._finish()
                return
        if self._loop is not None:
            if not heap and self._until is None:
                self._finish()  # open-ended run: stop once the work drains
            else:
                self._arm()

    # -------------------------------------------------------------- run loop
    def run(self, until: Optional[float] = None) -> float:
        """Run the event loop for ``until`` virtual seconds of wall time.

        A callback exception ends the run and re-raises here, matching the
        DES backend's behaviour.
        """
        self._error = None
        loop = asyncio.new_event_loop()
        try:
            loop.run_until_complete(self._main(loop, until))
        finally:
            self._loop = None
            if self._armed is not None:
                self._armed.cancel()
                self._armed = None
                self._armed_for = None
            loop.close()
        if self._error is not None:
            error, self._error = self._error, None
            raise error
        return self._final_now

    async def _main(self, loop: asyncio.AbstractEventLoop, until: Optional[float]) -> None:
        self._loop = loop
        self._start = loop.time()
        self._finished = asyncio.Event()
        self._until = until
        self._arm()
        if until is not None:
            loop.call_at(self._start + until * self.time_scale, self._finish)
        elif not self._heap:
            self._finish()
        await self._finished.wait()
        elapsed = (loop.time() - self._start) / self.time_scale
        # Clamp to the horizon: the loop may overshoot by scheduling jitter,
        # but like the DES backend the run ends exactly at ``until``.
        self._final_now = elapsed if until is None else min(elapsed, until)

    def _finish(self) -> None:
        if self._finished is not None:
            self._finished.set()

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon(self._finish)

    @property
    def partitioned(self) -> bool:
        return self.network.partitioned

    @property
    def drop_probability(self) -> float:
        return self.network.drop_probability

    @property
    def events_processed(self) -> int:
        return self._events_processed
