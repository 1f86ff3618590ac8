"""Shard-local transport: the Network with a local/remote fan-out split.

:class:`ShardNetwork` subclasses the single-process
:class:`~repro.sim.network.Network` and keeps its semantics bit-for-bit for
shard-local traffic (same stats order, same uplink serialisation, same RNG
draw per receiver).  The only change: a receiver living on another shard
gets its fully-computed delivery entry ``(arrival, sender, receiver,
message)`` appended to that shard's **outbox** instead of pushed onto the
local event queue.  Outboxes are flushed at every barrier
(:meth:`drain_outboxes`) and delivered into the destination shard's queue
before its next window (:meth:`enqueue_remote`), which checks the
conservative-synchronization invariant: no arrival may predate the
receiving shard's executed horizon.

Sender-side effects (stats, link filter, partition, loss, uplink busy time,
latency draws) all happen on the *sending* shard exactly as they would in
one process, so the cross-shard channel carries finished delivery entries —
the receiving shard never re-rolls RNG for them.
"""

# staticcheck: hot-path
from __future__ import annotations

from typing import Any, List, Optional, Tuple, TYPE_CHECKING

from repro.shard.ipc import RemoteEntry, ShardSyncError, encode_batch
from repro.shard.partition import ShardPlan
from repro.sim.latency import LatencyModel
from repro.sim.network import Network, NetworkConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import Simulator

_INFINITY = float("inf")


class ShardNetwork(Network):
    """The transport of one shard worker."""

    def __init__(
        self,
        simulator: "Simulator",
        latency: Optional[LatencyModel] = None,
        config: Optional[NetworkConfig] = None,
        *,
        plan: ShardPlan,
        shard_id: int,
    ) -> None:
        super().__init__(simulator, latency=latency, config=config)
        self.plan = plan
        self.shard_id = shard_id
        self._shard_of = plan.assignment
        #: receiver -> hosted-here? (dense bool row, hot-path indexed)
        self._local: List[bool] = [owner == shard_id for owner in plan.assignment]
        #: per-destination-shard outboxes of finished delivery entries
        self._outboxes: List[List[RemoteEntry]] = [[] for _ in range(plan.shards)]
        #: executed horizon: every local event strictly before this time has
        #: run; incoming remote arrivals must be >= it (lookahead safety)
        self._horizon = 0.0
        #: smallest (arrival - horizon) seen across all enqueued remote
        #: entries — the run's observed lookahead-safety margin
        self.min_margin = _INFINITY
        #: all replica ids, ascending — the *global* membership.  Protocol
        #: fan-out reads this (and caches per list identity), so it must be
        #: one stable list covering every shard, not just local handlers.
        self._global_nodes: List[int] = list(range(plan.n))

    # ---------------------------------------------------------- introspection
    def registered_nodes(self) -> List[int]:
        """Global membership (stable identity), not just local handlers.

        Registration never changes mid-run (crashes do not unregister), so
        the full-id list is correct on every shard and keeps the replicas'
        fan-out split caches valid.
        """
        return self._global_nodes

    # --------------------------------------------------------------- sending
    def send(self, sender: int, receiver: int, message: Any, size_bytes: int = 0) -> None:
        """One unicast; remote receivers get an outbox entry, not a queue push."""
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
        uplink_free = self._uplink_free_at.get(sender, 0.0)
        if uplink_free < now:
            uplink_free = now
        departure = uplink_free + transmission
        self._uplink_free_at[sender] = departure
        propagation = self.latency.delay(sender, receiver, self._rng) * self._latency_scale
        if propagation < 0.0:
            raise ValueError(
                f"latency model produced a negative delay for {sender}->{receiver}"
            )
        arrival = departure + propagation + config.processing_delay
        if self._local[receiver]:
            self._schedule_call(arrival, self._deliver, sender, receiver, message)
        else:
            self._outboxes[self._shard_of[receiver]].append(
                (arrival, sender, receiver, message)
            )

        if (
            config.duplicate_probability
            and self._rng.random() < config.duplicate_probability
        ):
            stats.messages_duplicated += 1
            extra = self.latency.delay(sender, receiver, self._rng) * self._latency_scale
            duplicate_arrival = departure + extra + config.processing_delay
            if self._local[receiver]:
                self._schedule_call(
                    duplicate_arrival, self._deliver, sender, receiver, message
                )
            else:
                self._outboxes[self._shard_of[receiver]].append(
                    (duplicate_arrival, sender, receiver, message)
                )

    def multicast(
        self, sender: int, receivers: "list[int] | tuple[int, ...]", message: Any, size_bytes: int = 0
    ) -> None:
        """Fused fan-out with the local/remote split folded into the loop."""
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
        local = self._local
        shard_of = self._shard_of
        outboxes = self._outboxes
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

        # ---------- DES fast path: inline latency, batched push or outbox
        queue = self._fast_queue
        profile = (
            self.latency.multicast_profile(sender, receivers)
            if queue is not None
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
            local_receivers: List[int] = []
            add_local = local_receivers.append
            sent = 0
            if uplink_free < now:
                uplink_free = now
            for receiver in receivers:
                sent += 1
                departure = uplink_free = uplink_free + transmission
                if receiver == sender:
                    arrival = departure + processing_delay
                else:
                    arrival = (
                        departure
                        + (base_row[receiver] + rng_random() * jitter) * latency_scale
                        + processing_delay
                    )
                if local[receiver]:
                    add_arrival(arrival)
                    add_local(receiver)
                else:
                    outboxes[shard_of[receiver]].append(
                        (arrival, sender, receiver, message)
                    )
            if sent:
                queue.push_calls(arrivals, deliver, sender, local_receivers, message)
                total_bytes = size_bytes * sent
                stats.messages_sent += sent
                stats.bytes_sent += total_bytes
                bytes_per_node[sender] = bytes_per_node.get(sender, 0) + total_bytes
                messages_per_node[sender] = messages_per_node.get(sender, 0) + sent
                self._uplink_free_at[sender] = uplink_free
            return

        # ----------------------------- general path: per-receiver delay()
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
            if local[receiver]:
                schedule_call(arrival, deliver, sender, receiver, message)
            else:
                outboxes[shard_of[receiver]].append((arrival, sender, receiver, message))
            if duplicate_probability and rng_random() < duplicate_probability:
                stats.messages_duplicated += 1
                extra = delay(sender, receiver, self._rng) * latency_scale
                duplicate_arrival = departure + extra + processing_delay
                if local[receiver]:
                    schedule_call(duplicate_arrival, deliver, sender, receiver, message)
                else:
                    outboxes[shard_of[receiver]].append(
                        (duplicate_arrival, sender, receiver, message)
                    )
        if sent:
            stats.messages_sent += sent
            stats.bytes_sent += total_bytes
            bytes_per_node[sender] = bytes_per_node.get(sender, 0) + total_bytes
            messages_per_node[sender] = messages_per_node.get(sender, 0) + sent
            self._uplink_free_at[sender] = uplink_free

    # ----------------------------------------------------------- barrier IPC
    def drain_outboxes(self) -> Tuple[List[Tuple[int, bytes]], float]:
        """Flush every non-empty outbox as ``(dest_shard, frame)`` pairs.

        Returns the frames plus the minimum arrival time across all flushed
        entries (``inf`` when nothing was pending) — the hub folds that into
        its idle-skip target so a barrier never outruns in-flight traffic.
        """
        frames: List[Tuple[int, bytes]] = []
        min_arrival = _INFINITY
        outboxes = self._outboxes
        for dest_shard in range(len(outboxes)):
            box = outboxes[dest_shard]
            if not box:
                continue
            for entry in box:
                if entry[0] < min_arrival:
                    min_arrival = entry[0]
            frames.append((dest_shard, encode_batch(box)))
            outboxes[dest_shard] = []
        return frames, min_arrival

    def enqueue_remote(self, entries: List[RemoteEntry]) -> None:
        """Deliver incoming cross-shard entries into the local event queue.

        Callers pass the round's entries already merged in deterministic
        order (source-shard order, stably sorted by arrival); each gets the
        next local sequence number, so tie-breaks at equal timestamps are
        reproducible.  Every arrival is checked against the executed
        horizon — a violation means the lookahead contract broke.
        """
        horizon = self._horizon
        push_call = self.simulator.queue.push_call
        deliver = self._deliver
        margin = self.min_margin
        for arrival, sender, receiver, message in entries:
            gap = arrival - horizon
            if gap < 0.0:
                raise ShardSyncError(
                    f"shard {self.shard_id}: remote message {sender}->{receiver} "
                    f"arrives at {arrival} but the shard already executed "
                    f"through {horizon} (lookahead violated by {-gap})"
                )
            if gap < margin:
                margin = gap
            push_call(arrival, deliver, sender, receiver, message)
        self.min_margin = margin

    def set_horizon(self, time: float) -> None:
        """Record that every local event strictly before ``time`` has run."""
        self._horizon = time

    @property
    def horizon(self) -> float:
        return self._horizon
