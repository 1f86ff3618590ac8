"""Shard-local transport: the Network with a local/remote delivery router.

:class:`ShardNetwork` subclasses the single-process
:class:`~repro.sim.network.Network` and overrides **no sending method**:
``multicast`` (and ``send``, a one-receiver fan-out) run the base class's
code, so shard-local traffic is bit-for-bit the single-process transport by
construction (same stats order, same uplink serialisation, same RNG draw per
receiver).  The only shard-specific step is where a finished delivery goes,
and that is the seam :meth:`Network._install_sink` exposes: the subclass
installs a router in front of the one delivery sink, which pushes receivers
hosted here onto the local event queue and appends, per destination shard,
one **record** ``(arrivals, sender, receivers, message)`` of the fan-out's
other receivers (in fan-out order, duplicates included) to that shard's
**outbox**.  Routing and the wire both cost one record per fan-out.

Outboxes are flushed at every barrier (:meth:`drain_outboxes`) and delivered
into the destination shard's queue before its next window
(:meth:`enqueue_remote`, one :meth:`~repro.sim.events.EventQueue.push_calls`
per record), which checks the conservative-synchronization invariant: no
arrival may predate the receiving shard's executed horizon.

Sender-side effects (stats, link filter, partition, loss, uplink busy time,
latency draws) all happen on the *sending* shard exactly as they would in
one process, so the cross-shard channel carries finished arrivals — the
receiving shard never re-rolls RNG for them.
"""

# staticcheck: hot-path
from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.shard.ipc import RemoteRecord, ShardSyncError, encode_batch
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
        #: per-destination-shard outboxes of fan-out records
        self._outboxes: List[List[RemoteRecord]] = [[] for _ in range(plan.shards)]
        #: executed horizon: every local event strictly before this time has
        #: run; incoming remote arrivals must be >= it (lookahead safety)
        self._horizon = 0.0
        #: smallest (arrival - horizon) seen across all enqueued remote
        #: arrivals — the run's observed lookahead-safety margin
        self.min_margin = _INFINITY
        #: all replica ids, ascending — the *global* membership.  Protocol
        #: fan-out reads this (and caches per list identity), so it must be
        #: one stable list covering every shard, not just local handlers.
        self._global_nodes: List[int] = list(range(plan.n))
        self._install_router()

    # ---------------------------------------------------------- introspection
    def registered_nodes(self) -> List[int]:
        """Global membership (stable identity), not just local handlers.

        Registration never changes mid-run (crashes do not unregister), so
        the full-id list is correct on every shard and keeps the replicas'
        fan-out split caches valid.
        """
        return self._global_nodes

    # ---------------------------------------------------------------- routing
    def _install_router(self) -> None:
        """Wrap the base sink so remote receivers go to an outbox.

        A closure over dense per-receiver rows, not a method: the router
        runs once per fan-out and should not pay attribute lookups for state
        that never changes.  ``outboxes`` is the outer list —
        :meth:`drain_outboxes` swaps the inner lists.
        """
        shard_of = self.plan.assignment
        local = [owner == self.shard_id for owner in shard_of]
        outboxes = self._outboxes
        push_local = self._push_calls

        def route_calls(
            arrivals: List[float], row, sender: int, receivers: Sequence[int], message: Any
        ) -> None:
            local_arrivals: List[float] = []
            add_arrival = local_arrivals.append
            local_receivers: List[int] = []
            add_local = local_receivers.append
            records = {}  # destination shard -> this fan-out's record
            for arrival, receiver in zip(arrivals, receivers):
                if local[receiver]:
                    add_arrival(arrival)
                    add_local(receiver)
                else:
                    record = records.get(shard_of[receiver])
                    if record is None:
                        records[shard_of[receiver]] = ([arrival], sender, [receiver], message)
                    else:
                        record[0].append(arrival)
                        record[2].append(receiver)
            push_local(local_arrivals, row, sender, local_receivers, message)
            for shard, record in records.items():
                outboxes[shard].append(record)

        self._install_sink(route_calls)

    # ----------------------------------------------------------- barrier IPC
    def drain_outboxes(self) -> Tuple[List[Tuple[int, bytes]], float]:
        """Flush every non-empty outbox as ``(dest_shard, frame)`` pairs.

        Returns the frames plus the minimum arrival time across all flushed
        records (``inf`` when nothing was pending) — the hub folds that into
        its idle-skip target so a barrier never outruns in-flight traffic.
        """
        frames: List[Tuple[int, bytes]] = []
        min_arrival = _INFINITY
        outboxes = self._outboxes
        for dest_shard in range(len(outboxes)):
            box = outboxes[dest_shard]
            if not box:
                continue
            for record in box:
                earliest = min(record[0])
                if earliest < min_arrival:
                    min_arrival = earliest
            frames.append((dest_shard, encode_batch(box)))
            outboxes[dest_shard] = []
        return frames, min_arrival

    def enqueue_remote(self, records: List[RemoteRecord]) -> None:
        """Deliver incoming cross-shard records into the local event queue.

        Callers pass frames in source-shard order, so each record's one
        ``push_calls`` (against this shard's handler row) hands out sequence
        numbers (tie-breaks at equal timestamps) reproducibly.  Every
        arrival is checked against the executed horizon, through its
        record's earliest one — a violation means the lookahead contract
        broke.
        """
        horizon = self._horizon
        push_calls = self.simulator.queue.push_calls
        row = self._row
        margin = self.min_margin
        for arrivals, sender, receivers, message in records:
            earliest = min(arrivals)
            gap = earliest - horizon
            if gap < 0.0:
                receiver = receivers[arrivals.index(earliest)]
                raise ShardSyncError(
                    f"shard {self.shard_id}: remote message {sender}->{receiver} "
                    f"arrives at {earliest} but the shard already executed "
                    f"through {horizon} (lookahead violated by {-gap})"
                )
            if gap < margin:
                margin = gap
            push_calls(arrivals, row, sender, receivers, message)
        self.min_margin = margin

    def set_horizon(self, time: float) -> None:
        """Record that every local event strictly before ``time`` has run."""
        self._horizon = time
