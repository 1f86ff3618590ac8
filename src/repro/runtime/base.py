"""The sans-I/O execution seam.

A :class:`Runtime` is everything protocol code may touch about the outside
world: a clock, a scheduler, and a message transport.  Nodes
(:class:`repro.sim.node.Node`), the Multi-BFT systems
(:mod:`repro.protocols`), fault injection (:mod:`repro.sim.faults`), and the
adversary subsystem all program against this interface and never against a
concrete backend, so the same replica state machines run unchanged on:

* :class:`~repro.runtime.des.DESRuntime` — the discrete-event simulator
  (virtual time, deterministic, fast);
* :class:`~repro.runtime.sharded.ShardedDESRuntime` — conservative-parallel
  DES across worker processes; protocol code runs inside the workers on
  per-shard :class:`~repro.runtime.sharded.ShardWorkerRuntime` instances;
* future backends (sockets, distributed) implementing the same surface.

The interface is deliberately small and callback-shaped — *sans-I/O*: the
protocol layer produces and consumes messages/timers and never blocks, so a
backend may drive it from a virtual-time loop, an event loop, or a thread.

Scheduling handles returned by :meth:`Runtime.schedule_at` /
:meth:`Runtime.schedule_after` expose ``cancel()`` and a ``cancelled``
attribute (the :class:`~repro.sim.events.Event` contract); backends supply
their own handle type.  Message deliveries do not pass through this
interface: the transport (:class:`~repro.sim.network.Network`) hands each
fan-out's arrival times to its scheduler's ``push_calls`` sink itself,
together with its *handler row* — the list whose slot ``i`` is node ``i``'s
inbound handler — and the scheduler calls ``row[receiver](sender,
message)`` at each arrival, counting it into the transport's
``messages_delivered``.  Protocol code has nothing to schedule per
delivery, and no transport frame sits between the scheduler and the
receiving replica.  Message sizes do not pass through it either: a message
carries its own ``size_bytes``, which the transport reads, so
:meth:`Runtime.send` and :meth:`Runtime.multicast` take the message alone.
"""

from __future__ import annotations

import random
from typing import Any, Callable, List, Optional, Sequence

from repro.sim.trace import TraceRecorder

#: the selectable execution backends (``ExperimentCell.runtime`` values)
RUNTIME_KINDS = ("des", "sharded")


class Runtime:
    """Abstract execution backend: clock + scheduler + transport.

    Concrete backends must provide the attributes ``rng`` (a seeded
    :class:`random.Random`), ``trace`` (a
    :class:`~repro.sim.trace.TraceRecorder`), and ``stats`` (a
    :class:`~repro.sim.network.NetworkStats`), plus every method below.
    """

    kind: str = "abstract"
    rng: random.Random
    trace: TraceRecorder

    # ------------------------------------------------------------------ time
    def now(self) -> float:
        """Current time in seconds (virtual or wall-clock since run start)."""
        raise NotImplementedError

    # ------------------------------------------------------------ scheduling
    def schedule_at(self, time: float, callback: Callable[[], None], label: str = "") -> Any:
        """Schedule ``callback`` at absolute time ``time``; returns a handle."""
        raise NotImplementedError

    def schedule_after(self, delay: float, callback: Callable[[], None], label: str = "") -> Any:
        """Schedule ``callback`` ``delay`` seconds from now; returns a handle."""
        raise NotImplementedError

    def cancel(self, handle: Any) -> None:
        """Cancel a handle returned by ``schedule_at``/``schedule_after``."""
        raise NotImplementedError

    # ------------------------------------------------------------- transport
    def register(self, node_id: int, handler: Callable[[int, Any], None]) -> None:
        """Register the inbound-message handler for ``node_id``."""
        raise NotImplementedError

    def send(self, sender: int, receiver: int, message: Any) -> None:
        """Send one message from ``sender`` to ``receiver``."""
        raise NotImplementedError

    def multicast(self, sender: int, receivers: Sequence[int], message: Any) -> None:
        """Send ``message`` to every receiver (one fused fan-out)."""
        raise NotImplementedError

    def registered_nodes(self) -> List[int]:
        """Registered node ids, ascending.  Callers must not mutate."""
        raise NotImplementedError

    # ------------------------------------------------------ network dynamics
    # The fault injector drives partitions / degradation / loss bursts through
    # the runtime so dynamics timelines arm identically on every backend.
    def set_partition(self, groups: Sequence[Sequence[int]]) -> None:
        raise NotImplementedError

    def heal_partition(self) -> None:
        raise NotImplementedError

    @property
    def partitioned(self) -> bool:
        raise NotImplementedError

    def set_latency_scale(self, factor: float) -> None:
        raise NotImplementedError

    def set_drop_probability(self, probability: float) -> None:
        raise NotImplementedError

    @property
    def drop_probability(self) -> float:
        raise NotImplementedError

    # -------------------------------------------------------------- run loop
    def run(self, until: Optional[float] = None) -> float:
        """Drive the backend until ``until`` (seconds); returns the end time."""
        raise NotImplementedError
