"""Message delivery: latency + bandwidth model, per-link statistics.

The paper limits each replica's NIC to 1 Gbps and observes that neither ISS
nor Ladon is CPU-bound.  We model transmission time as ``bytes / bandwidth``
serialised per sender (a sender's messages queue behind each other on its
uplink) plus the propagation delay from the latency model.  Byte counts feed
the Table 1 bandwidth accounting.  A message's size is its own
``size_bytes`` (:mod:`repro.consensus.messages`), read once per fan-out;
no sending method takes a size argument.

This module sits on the simulation hot path (one fan-out per protocol
message), and :meth:`Network.multicast` is its only sending code —
:meth:`Network.send` is a one-receiver fan-out.  A protocol replica's
unicast (every HotStuff vote) enters :meth:`multicast` directly with a
one-receiver tuple, after the crash and interceptor checks
``Node.multicast`` makes (``MultiBFTReplica.send_protocol_message``).  The fan-out is one loop
with the per-send work hoisted around it: the sender's bandwidth, the uplink
clamp and the latency profile before it, the statistics and the uplink store
after it.  The per-receiver *order* of operations (drop checks, uplink
serialisation, latency draw, duplication draw) is that of a sequence of
unicasts, so a fan-out leaves event ordering and RNG streams byte-for-byte
those of per-receiver sends.

The network reads four things of its :class:`~repro.sim.simulator.Simulator`
(every backend runs on one): ``now()``, ``push_calls(times, row, a, bs, c)``,
the seeded ``rng`` and the settable ``delivery_stats``.  The simulator calls ``row[receiver](sender, message)``
at each arrival and counts it into ``delivery_stats.messages_delivered``;
the network keeps ``row``, its *handler row*, so a delivery reaches the
receiver's handler with no transport frame in between.

Every delivery leaves through one *sink* bound at construction
(:meth:`Network._install_sink`).  It is the only thing a backend that
delivers elsewhere replaces — the sharded transport routes remote receivers
to outboxes there and overrides no sending method, so the arithmetic above
exists in this module only.
"""

# staticcheck: hot-path
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

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

    def record_drop(self, cause: str) -> None:
        self.messages_dropped += 1
        self.drops_by_cause[cause] = self.drops_by_cause.get(cause, 0) + 1


class Network:
    """Delivers messages between nodes registered with the simulator.

    Nodes call :meth:`send` / :meth:`multicast`; the network computes delivery
    times and schedules each arrival against the receiver's slot of its
    handler row.  Nodes are isolated with :meth:`set_partition`.
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
        #: the handler row: slot ``i`` is what a message arriving at ``i``
        #: calls.  Deliveries in flight hold this list, so it is only ever
        #: changed in place.
        self._row: List[Callable[[int, Any], None]] = []
        self._registered_sorted: List[int] = []
        self._uplink_free_at: Dict[int, float] = {}
        self._partition_group: Optional[Dict[int, int]] = None
        self._latency_scale: float = 1.0
        self._rng = random.Random(simulator.rng.randint(0, 2**31 - 1))
        # Resolved once here: multicast() is the hot path.  Arrival times
        # are >= now by construction (departure >= now, and the latency
        # model refuses negative delays when it is built), so the scheduler
        # needs no past-time guard per delivery.
        self._install_sink(simulator.push_calls)
        # The scheduler counts the deliveries it runs into these stats.
        simulator.delivery_stats = self.stats
        # Scheduler-owned trace recorder: deliveries are recorded here when
        # tracing is on, making the trace a full schedule witness for replay.
        trace = getattr(simulator, "trace", None)
        # Explicit None check: an empty TraceRecorder is falsy (__len__ == 0).
        self._trace: TraceRecorder = (
            trace if trace is not None else TraceRecorder(enabled=False)
        )

    # --------------------------------------------------------- delivery sink
    def _install_sink(
        self, push_calls: Callable[[List[float], List[Callable], int, Sequence[int], Any], Any]
    ) -> None:
        """Set where finished deliveries go (construction time only).

        Every delivery leaves through ``push_calls(arrivals, row, sender,
        receivers, message)`` — one call per fan-out, ``arrivals[i]``
        belonging to ``receivers[i]`` — and that callable is the whole seam
        between the transport arithmetic and the scheduler.  ``row`` is the
        network's handler row: the scheduler calls ``row[receiver](sender,
        message)`` when the message arrives.  It takes a batch rather than
        one delivery because the batched hand-over is what keeps the n=128
        fan-out free of a Python frame per receiver.  A
        subclass that delivers somewhere else (the sharded backend's
        :class:`~repro.shard.transport.ShardNetwork`) calls this from its
        constructor with a wrapper around the sink the base class resolved;
        the installed sink is also the *base* that
        :meth:`set_delivery_perturbation` wraps and later restores.
        """
        self._push_calls = self._base_push_calls = push_calls

    # --------------------------------------------------------- registration
    def register(self, node_id: int, handler: Callable[[int, Any], None]) -> None:
        """Register the message handler for ``node_id``.

        The handler row grows to cover ``node_id``, with the unregistered
        slot in the gaps.  With tracing on, the slot is a wrapper that
        records the ``deliver`` entry before it calls ``handler``.
        """
        if node_id in self._handlers:
            raise ValueError(f"node {node_id} already registered")
        self._handlers[node_id] = handler
        self._uplink_free_at[node_id] = 0.0
        self._registered_sorted = sorted(self._handlers.keys())
        row = self._row
        if node_id >= len(row):
            row.extend([self._unregistered] * (node_id + 1 - len(row)))
        row[node_id] = self._traced(node_id, handler) if self._trace.enabled else handler

    def _unregistered(self, sender: int, message: Any) -> None:
        """The row slot of an id with no handler: the arrival is a drop.

        The scheduler counts every arrival it runs as delivered, so this
        takes the arrival back out of ``messages_delivered``.  A message to
        an id above every registered one has no slot at all (``IndexError``
        when it arrives): no system sends to an id it never registered.
        """
        stats = self.stats
        stats.messages_delivered -= 1
        stats.record_drop("unregistered")

    def _traced(
        self, receiver: int, handler: Callable[[int, Any], None]
    ) -> Callable[[int, Any], None]:
        """``handler`` behind a ``deliver`` trace record.

        Every delivery lands in the trace: together with cancellations and
        fault-timeline actions this makes the trace a complete schedule
        witness (replayable, digestable).
        """
        record = self._trace.record
        now = self.simulator.now

        def deliver(sender: int, message: Any) -> None:
            record(
                now(),
                "deliver",
                receiver,
                sender=sender,
                kind=message.__class__.__name__,
                instance=getattr(message, "instance", -1),
            )
            handler(sender, message)

        return deliver

    def set_delivery_perturbation(self, perturbation) -> None:
        """Install (None: remove) a delivery-schedule perturbation.

        ``perturbation`` exposes ``perturb(arrival, sender, receiver) ->
        float`` returning the adjusted arrival (must be ``>= arrival``, so
        perturbed runs stay valid executions); it wraps the delivery sink
        and is applied to every delivery, in batch order — which is the
        scheduling order — so the *zero* perturbation reproduces the
        unperturbed schedule exactly.
        """
        base = self._base_push_calls
        if perturbation is None:
            self._push_calls = base
            return
        perturb = perturbation.perturb

        def push_perturbed(arrivals, row, sender, receivers, message) -> None:
            perturbed = [
                perturb(arrival, sender, receiver)
                for arrival, receiver in zip(arrivals, receivers)
            ]
            base(perturbed, row, sender, receivers, message)

        self._push_calls = push_perturbed

    # ------------------------------------------------------ network dynamics
    def set_partition(self, groups: Sequence[Sequence[int]]) -> None:
        """Partition the network into ``groups`` of mutually reachable nodes.

        Messages crossing group boundaries are dropped; nodes absent from
        every group are isolated.
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
        groups = self._partition_group
        sender_group = groups.get(sender)
        receiver_group = groups.get(receiver)
        return sender_group is None or receiver_group is None or sender_group != receiver_group

    # --------------------------------------------------------------- sending
    def send(self, sender: int, receiver: int, message: Any) -> None:
        """Send one message: a one-receiver :meth:`multicast`."""
        self.multicast(sender, (receiver,), message)

    def multicast(self, sender: int, receivers: Sequence[int], message: Any) -> None:
        """Send the same message to every receiver (possibly the sender too).

        Every copy counts as sent, dropped or not, at ``message.size_bytes``
        each, and the copies that go out queue behind each other on the
        sender's uplink.  Propagation comes from the latency model's
        :meth:`~repro.sim.latency.LatencyModel.multicast_profile` inline —
        ``base_row[r] + rng.random() * jitter``, one draw iff ``jitter > 0``
        and none for a self pair, the rule of
        :meth:`~repro.sim.latency.LatencyModel.delay`.  Partition, loss and
        duplication are per-receiver checks behind one ``armed`` local: an
        unarmed fan-out pays for none of them and hands the caller's
        receiver list to the sink as is.  A duplicate is one more
        ``(arrival, receiver)`` pair right after its original, so the batch
        is in the scheduling order of a loop of unicasts.
        """
        stats = self.stats
        config = self.config
        size_bytes = message.size_bytes
        transmission = size_bytes / config.bandwidth_of(sender) if size_bytes else 0.0
        now = self.simulator.now()
        uplink_free = self._uplink_free_at.get(sender, 0.0)
        if uplink_free < now:
            uplink_free = now
        base_row, jitter = self.latency.multicast_profile(sender, receivers)
        latency_scale = self._latency_scale
        processing_delay = config.processing_delay
        rng = self._rng
        partitioned = self._partition_group is not None
        drop_probability = config.drop_probability
        duplicate_probability = config.duplicate_probability
        draws = jitter > 0
        armed = partitioned or drop_probability or duplicate_probability
        targets = [] if armed else receivers
        # ``arrivals.append`` and ``rng.random`` are called as methods, not
        # held as bound-method locals: binding one is an allocation per
        # fan-out, and most fan-outs are one-receiver unicasts.
        arrivals: List[float] = []
        for receiver in receivers:
            if armed:
                if partitioned and self._partition_blocks(sender, receiver):
                    stats.record_drop("partition")
                    continue
                if drop_probability and rng.random() < drop_probability:
                    stats.record_drop("loss")
                    continue
            departure = uplink_free = uplink_free + transmission
            # Left-to-right float order: departure + propagation + processing
            # (a self pair's zero propagation is left out: x + 0.0 == x).
            if receiver == sender:
                arrivals.append(departure + processing_delay)
            elif draws:
                arrivals.append(
                    departure
                    + (base_row[receiver] + rng.random() * jitter) * latency_scale
                    + processing_delay
                )
            else:
                arrivals.append(departure + base_row[receiver] * latency_scale + processing_delay)
            if armed:
                targets.append(receiver)
                if duplicate_probability and rng.random() < duplicate_probability:
                    # Duplicate delivery: same payload arrives a second time
                    # after an independent propagation delay
                    # (retransmission/route flap model).
                    stats.messages_duplicated += 1
                    extra = self.latency.delay(sender, receiver, rng) * latency_scale
                    arrivals.append(departure + extra + processing_delay)
                    targets.append(receiver)
        sent = len(receivers)
        if sent:
            total_bytes = size_bytes * sent
            stats.messages_sent += sent
            stats.bytes_sent += total_bytes
            per_node = stats.bytes_per_node
            per_node[sender] = per_node.get(sender, 0) + total_bytes
            per_node = stats.messages_per_node
            per_node[sender] = per_node.get(sender, 0) + sent
            self._uplink_free_at[sender] = uplink_free
        if arrivals:
            self._push_calls(arrivals, self._row, sender, targets, message)

    # ------------------------------------------------------------- inspection
    def registered_nodes(self) -> "list[int]":
        """The registered node ids, ascending.  Callers must not mutate."""
        return self._registered_sorted
