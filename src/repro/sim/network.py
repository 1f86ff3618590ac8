"""Message delivery: latency + bandwidth model, per-link statistics.

The paper limits each replica's NIC to 1 Gbps and observes that neither ISS
nor Ladon is CPU-bound.  We model transmission time as ``bytes / bandwidth``
serialised per sender (a sender's messages queue behind each other on its
uplink) plus the propagation delay from the latency model.  Byte counts feed
the Table 1 bandwidth accounting.

This module sits on the simulation hot path (one :meth:`Network.send` per
protocol message), so delivery is scheduled through the scheduler's
closure-free ``schedule_call`` fast path and :meth:`Network.multicast` runs
one fused fan-out loop with the per-receiver arithmetic hoisted, instead of
re-entering :meth:`send` per receiver.  The per-receiver *order* of
operations (stats, drop checks, uplink serialisation, latency draw) is
identical to a sequence of unicasts, so fused fan-out leaves event ordering
and RNG streams byte-for-byte unchanged.

The ``simulator`` collaborator is duck-typed: anything exposing ``now()``,
``schedule_call(time, fn, a, b, c)`` and a seeded ``rng`` works, which is how
the realtime runtime reuses this exact transport model on a wall-clock
scheduler.

All three sending paths (:meth:`Network.send`, the :meth:`Network.multicast`
fast path and its general path) hand a finished delivery to one of two
*sinks* bound at construction (:meth:`Network._install_sinks`).  That pair is
the only thing a backend that delivers elsewhere replaces — the sharded
transport routes remote receivers to outboxes there and overrides no sending
method, so the arithmetic above exists in this module only.
"""

# staticcheck: hot-path
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.sim.events import EventQueue
from repro.sim.latency import LatencyModel, UniformLatency
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import Simulator


GIGABIT_PER_SECOND_BYTES = 125_000_000  # 1 Gbps in bytes/second


@dataclass(slots=True)
class NetworkConfig:
    """Configuration of the message transport."""

    bandwidth_bytes_per_s: float = GIGABIT_PER_SECOND_BYTES
    drop_probability: float = 0.0
    processing_delay: float = 0.00002  # per-message handling cost at receiver
    duplicate_probability: float = 0.0
    #: heterogeneous deployments: per-node uplink bandwidth overrides
    node_bandwidth: Optional[Dict[int, float]] = None

    def bandwidth_of(self, node_id: int) -> float:
        if self.node_bandwidth:
            return self.node_bandwidth.get(node_id, self.bandwidth_bytes_per_s)
        return self.bandwidth_bytes_per_s


@dataclass(slots=True)
class NetworkStats:
    """Aggregate transport statistics for one run."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    drops_by_cause: Dict[str, int] = field(default_factory=dict)
    bytes_sent: int = 0
    bytes_per_node: Dict[int, int] = field(default_factory=dict)
    messages_per_node: Dict[int, int] = field(default_factory=dict)

    def record_send(self, sender: int, size: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += size
        self.bytes_per_node[sender] = self.bytes_per_node.get(sender, 0) + size
        self.messages_per_node[sender] = self.messages_per_node.get(sender, 0) + 1

    def record_drop(self, cause: str) -> None:
        self.messages_dropped += 1
        self.drops_by_cause[cause] = self.drops_by_cause.get(cause, 0) + 1


class Network:
    """Delivers messages between nodes registered with the simulator.

    Nodes call :meth:`send` / :meth:`multicast`; the network computes delivery
    times and schedules the receiver's ``deliver`` callback.  A partitioned or
    crashed node can be isolated via :meth:`set_link_filter`.
    """

    def __init__(
        self,
        simulator: "Simulator",
        latency: Optional[LatencyModel] = None,
        config: Optional[NetworkConfig] = None,
    ) -> None:
        self.simulator = simulator
        self.latency = latency if latency is not None else UniformLatency()
        self.config = config if config is not None else NetworkConfig()
        self.stats = NetworkStats()
        self._handlers: Dict[int, Callable[[int, Any], None]] = {}
        self._registered_sorted: List[int] = []
        self._uplink_free_at: Dict[int, float] = {}
        self._link_filter: Optional[Callable[[int, int], bool]] = None
        self._partition_group: Optional[Dict[int, int]] = None
        self._latency_scale: float = 1.0
        self._rng = random.Random(simulator.rng.randint(0, 2**31 - 1))
        # The two delivery sinks (see _install_sinks), resolved once here —
        # send() and multicast() are the hot path.  Arrival times are
        # provably >= now (departure >= now, delays >= 0), so the DES
        # backend's unchecked scheduling path is safe; other backends
        # (realtime) keep their guarded schedule_call and have no batched
        # sink (their scheduler is not the DES EventQueue).
        queue = getattr(simulator, "queue", None)
        self._install_sinks(
            getattr(simulator, "schedule_call_unchecked", None)
            or simulator.schedule_call,
            queue.push_calls if isinstance(queue, EventQueue) else None,
        )
        self._perturbation = None
        # Scheduler-owned trace recorder: deliveries are recorded here when
        # tracing is on, making the trace a full schedule witness for replay.
        trace = getattr(simulator, "trace", None)
        # Explicit None check: an empty TraceRecorder is falsy (__len__ == 0).
        self._trace: TraceRecorder = (
            trace if trace is not None else TraceRecorder(enabled=False)
        )

    # -------------------------------------------------------- delivery sinks
    def _install_sinks(
        self,
        schedule_call: Callable[[float, Callable, int, int, Any], Any],
        push_calls: Optional[Callable[[List[float], Callable, int, Sequence[int], Any], Any]],
    ) -> None:
        """Set where finished deliveries go (construction time only).

        Every sending path ends in one of two callables, and they are the
        whole seam between the transport arithmetic and the scheduler:

        * ``schedule_call(arrival, fn, sender, receiver, message)`` — one
          delivery; used by :meth:`send` and the general :meth:`multicast`
          path;
        * ``push_calls(arrivals, fn, sender, receivers, message)`` — one
          whole fan-out (``arrivals[i]`` belongs to ``receivers[i]``); used
          by the :meth:`multicast` fast path.  ``None`` disables that path.

        It is two callables rather than one because the batched hand-over is
        what keeps the n=128 fan-out free of a Python frame per receiver; a
        single per-delivery sink would put that frame back.  Both are bound
        to instance attributes once, so the sending methods never branch on
        who is listening.  A subclass that delivers somewhere else (the
        sharded backend's :class:`~repro.shard.transport.ShardNetwork`)
        calls this from its constructor with wrappers around the pair the
        base class resolved; the installed pair is also the *base* that
        :meth:`set_delivery_perturbation` wraps and later restores.
        """
        self._schedule_call = self._base_schedule_call = schedule_call
        self._push_calls = self._base_push_calls = push_calls

    # --------------------------------------------------------- registration
    def register(self, node_id: int, handler: Callable[[int, Any], None]) -> None:
        """Register the message handler for ``node_id``."""
        if node_id in self._handlers:
            raise ValueError(f"node {node_id} already registered")
        self._handlers[node_id] = handler
        self._uplink_free_at[node_id] = 0.0
        self._registered_sorted = sorted(self._handlers.keys())

    def unregister(self, node_id: int) -> None:
        self._handlers.pop(node_id, None)
        self._registered_sorted = sorted(self._handlers.keys())

    def set_link_filter(self, predicate: Optional[Callable[[int, int], bool]]) -> None:
        """Install a predicate(sender, receiver) -> deliverable? (None = all)."""
        self._link_filter = predicate

    def set_delivery_perturbation(self, perturbation) -> None:
        """Install (None: remove) a delivery-schedule perturbation.

        ``perturbation`` exposes ``perturb(arrival, sender, receiver) ->
        float`` returning the adjusted arrival (must be ``>= arrival``, so
        perturbed runs stay valid executions); it is applied to every
        delivery this transport schedules, in scheduling order.  Installing
        one disables the multicast batched fast path — the general path
        is draw-for-draw byte-identical (see :meth:`multicast`), so the
        *zero* perturbation reproduces the unperturbed schedule exactly.
        """
        if perturbation is None:
            self._perturbation = None
            self._schedule_call = self._base_schedule_call
            self._push_calls = self._base_push_calls
            return
        self._perturbation = perturbation
        self._push_calls = None
        base_schedule = self._base_schedule_call
        perturb = perturbation.perturb

        def _schedule_perturbed(time: float, fn, sender, receiver, message) -> None:
            base_schedule(perturb(time, sender, receiver), fn, sender, receiver, message)

        self._schedule_call = _schedule_perturbed

    # ------------------------------------------------------ network dynamics
    def set_partition(self, groups: Sequence[Sequence[int]]) -> None:
        """Partition the network into ``groups`` of mutually reachable nodes.

        Messages crossing group boundaries are dropped; nodes absent from
        every group are isolated.  The partition composes with (does not
        replace) any installed link filter.
        """
        mapping: Dict[int, int] = {}
        for index, group in enumerate(groups):
            for node in group:
                if node in mapping:
                    raise ValueError(f"node {node} appears in more than one group")
                mapping[node] = index
        self._partition_group = mapping

    def heal_partition(self) -> None:
        """Remove the active partition (all links reachable again)."""
        self._partition_group = None

    @property
    def partitioned(self) -> bool:
        return self._partition_group is not None

    def set_latency_scale(self, factor: float) -> None:
        """Scale all propagation delays (link degradation; 1.0 = nominal)."""
        if factor <= 0:
            raise ValueError("latency scale must be positive")
        self._latency_scale = factor

    def set_drop_probability(self, probability: float) -> None:
        """Change the uniform message-loss probability (loss bursts)."""
        if not 0.0 <= probability < 1.0:
            raise ValueError("drop probability must be in [0, 1)")
        self.config.drop_probability = probability

    @property
    def drop_probability(self) -> float:
        """The current uniform message-loss probability."""
        return self.config.drop_probability

    def _partition_blocks(self, sender: int, receiver: int) -> bool:
        if self._partition_group is None:
            return False
        groups = self._partition_group
        sender_group = groups.get(sender)
        receiver_group = groups.get(receiver)
        return sender_group is None or receiver_group is None or sender_group != receiver_group

    # --------------------------------------------------------------- sending
    def send(self, sender: int, receiver: int, message: Any, size_bytes: int = 0) -> None:
        """Send one message; loopback messages are delivered with zero latency."""
        stats = self.stats
        stats.messages_sent += 1
        stats.bytes_sent += size_bytes
        per_node = stats.bytes_per_node
        per_node[sender] = per_node.get(sender, 0) + size_bytes
        per_node = stats.messages_per_node
        per_node[sender] = per_node.get(sender, 0) + 1
        if self._link_filter is not None and not self._link_filter(sender, receiver):
            stats.record_drop("link-filter")
            return
        if self._partition_group is not None and self._partition_blocks(sender, receiver):
            stats.record_drop("partition")
            return
        config = self.config
        if config.drop_probability and self._rng.random() < config.drop_probability:
            stats.record_drop("loss")
            return

        now = self.simulator.now()
        if size_bytes:
            bandwidth = config.node_bandwidth
            if bandwidth:
                bandwidth = bandwidth.get(sender, config.bandwidth_bytes_per_s)
            else:
                bandwidth = config.bandwidth_bytes_per_s
            transmission = size_bytes / bandwidth
        else:
            transmission = 0.0
        # Serialise on the sender's uplink.
        uplink_free = self._uplink_free_at.get(sender, 0.0)
        if uplink_free < now:
            uplink_free = now
        departure = uplink_free + transmission
        self._uplink_free_at[sender] = departure
        propagation = self.latency.delay(sender, receiver, self._rng) * self._latency_scale
        if propagation < 0.0:
            # Catch latency-model bugs at the source so every backend fails
            # identically (the DES scheduler would also reject the past-time
            # delivery, but the realtime scheduler has no virtual "past").
            raise ValueError(
                f"latency model produced a negative delay for {sender}->{receiver}"
            )
        arrival = departure + propagation + config.processing_delay
        schedule_call = self._schedule_call
        schedule_call(arrival, self._deliver, sender, receiver, message)

        if (
            config.duplicate_probability
            and self._rng.random() < config.duplicate_probability
        ):
            # Duplicate delivery: same payload arrives a second time after an
            # independent propagation delay (retransmission/route flap model).
            stats.messages_duplicated += 1
            extra = self.latency.delay(sender, receiver, self._rng) * self._latency_scale
            schedule_call(
                departure + extra + config.processing_delay,
                self._deliver,
                sender,
                receiver,
                message,
            )

    def _deliver(self, sender: int, receiver: int, message: Any) -> None:
        handler = self._handlers.get(receiver)
        if handler is None:
            self.stats.record_drop("unregistered")
            return
        self.stats.messages_delivered += 1
        trace = self._trace
        if trace.enabled:
            # Every delivery lands in the trace: together with cancellations
            # and fault-timeline actions this makes the trace a complete
            # schedule witness (replayable, digestable).
            trace.record(
                self.simulator.now(),
                "deliver",
                receiver,
                sender=sender,
                kind=message.__class__.__name__,
                instance=getattr(message, "instance", -1),
            )
        handler(sender, message)

    def multicast(self, sender: int, receivers: "list[int] | tuple[int, ...]", message: Any, size_bytes: int = 0) -> None:
        """Send the same message to every receiver (including possibly sender).

        One fused fan-out: the shared per-send quantities (transmission time,
        config lookups, bound methods) are hoisted out of the receiver loop.
        On the DES backend with a latency model exposing
        :meth:`~repro.sim.latency.LatencyModel.multicast_profile`, the happy
        path (no filter/partition/loss/duplication) computes the propagation
        inline and hands all arrival times to the event queue in one
        :meth:`~repro.sim.events.EventQueue.push_calls` batch — no
        per-receiver Python frame at all.  The per-receiver operation order
        (and every RNG draw) matches a loop of :meth:`send` calls exactly,
        so statistics, uplink serialisation, and event ordering are
        indistinguishable from per-receiver unicasts.
        """
        stats = self.stats
        config = self.config
        link_filter = self._link_filter
        drop_probability = config.drop_probability
        duplicate_probability = config.duplicate_probability
        partitioned = self._partition_group is not None
        processing_delay = config.processing_delay
        latency_scale = self._latency_scale
        rng_random = self._rng.random
        deliver = self._deliver
        bytes_per_node = stats.bytes_per_node
        messages_per_node = stats.messages_per_node
        if size_bytes:
            bandwidth = config.node_bandwidth
            if bandwidth:
                bandwidth = bandwidth.get(sender, config.bandwidth_bytes_per_s)
            else:
                bandwidth = config.bandwidth_bytes_per_s
            transmission = size_bytes / bandwidth
        else:
            transmission = 0.0
        now = self.simulator.now()
        uplink_free = self._uplink_free_at.get(sender, 0.0)

        # ------------------- DES fast path: inline latency, one batched push
        push_calls = self._push_calls
        profile = (
            self.latency.multicast_profile(sender, receivers)
            if push_calls is not None
            and link_filter is None
            and not partitioned
            and not drop_probability
            and not duplicate_probability
            else None
        )
        if profile is not None:
            base_row, jitter = profile
            arrivals: List[float] = []
            add_arrival = arrivals.append
            if uplink_free < now:
                uplink_free = now
            for receiver in receivers:
                departure = uplink_free = uplink_free + transmission
                if receiver == sender:
                    # delay() contract: self pairs are 0.0 with NO rng draw
                    # (departure + 0.0 + processing == departure + processing).
                    arrival = departure + processing_delay
                else:
                    # Same left-to-right float order as the general path:
                    # departure + propagation + processing_delay.
                    arrival = (
                        departure
                        + (base_row[receiver] + rng_random() * jitter) * latency_scale
                        + processing_delay
                    )
                add_arrival(arrival)
            sent = len(arrivals)
            if sent:
                push_calls(arrivals, deliver, sender, receivers, message)
                total_bytes = size_bytes * sent
                stats.messages_sent += sent
                stats.bytes_sent += total_bytes
                bytes_per_node[sender] = bytes_per_node.get(sender, 0) + total_bytes
                messages_per_node[sender] = messages_per_node.get(sender, 0) + sent
                self._uplink_free_at[sender] = uplink_free
            return

        # ------------------------------- general path: per-receiver delay()
        delay = self.latency.delay
        schedule_call = self._schedule_call
        sent = 0
        total_bytes = 0
        for receiver in receivers:
            sent += 1
            total_bytes += size_bytes
            if link_filter is not None and not link_filter(sender, receiver):
                stats.record_drop("link-filter")
                continue
            if partitioned and self._partition_blocks(sender, receiver):
                stats.record_drop("partition")
                continue
            if drop_probability and rng_random() < drop_probability:
                stats.record_drop("loss")
                continue
            if uplink_free < now:
                uplink_free = now
            departure = uplink_free + transmission
            uplink_free = departure
            propagation = delay(sender, receiver, self._rng) * latency_scale
            if propagation < 0.0:
                raise ValueError(
                    f"latency model produced a negative delay for {sender}->{receiver}"
                )
            arrival = departure + propagation + processing_delay
            schedule_call(arrival, deliver, sender, receiver, message)
            if duplicate_probability and rng_random() < duplicate_probability:
                stats.messages_duplicated += 1
                extra = delay(sender, receiver, self._rng) * latency_scale
                schedule_call(
                    departure + extra + processing_delay, deliver, sender, receiver, message
                )
        if sent:
            stats.messages_sent += sent
            stats.bytes_sent += total_bytes
            bytes_per_node[sender] = bytes_per_node.get(sender, 0) + total_bytes
            messages_per_node[sender] = messages_per_node.get(sender, 0) + sent
            self._uplink_free_at[sender] = uplink_free

    def broadcast(self, sender: int, message: Any, size_bytes: int = 0) -> None:
        """Send to every registered node, including the sender itself."""
        self.multicast(sender, self.registered_nodes(), message, size_bytes)

    # ------------------------------------------------------------- inspection
    def registered_nodes(self) -> "list[int]":
        """The registered node ids, ascending.  Callers must not mutate."""
        return self._registered_sorted
