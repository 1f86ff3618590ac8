"""Sharded multi-core DES: conservative-parallel simulation workers.

The single-process DES executes one global event heap; past ~10⁵ events/s
it is CPU-bound on one core.  This backend partitions the replica set
across N worker processes (:mod:`repro.shard.partition`), runs the
*unchanged* single-process engine inside each worker over its shard, and
synchronizes the workers conservatively:

**Safety argument.**  Every cross-shard message sent at time ``t`` arrives
at ``>= t + L``, where ``L`` is the lookahead derived from the scenario's
minimum cross-shard delay (:mod:`repro.shard.lookahead`).  The hub
therefore advances all shards in epoch-barrier windows of width ``<= L``:
a window ``[T_prev, T)`` with ``T - t_min <= L`` (``t_min`` = the earliest
pending event or in-flight arrival anywhere) can only *produce* cross-shard
arrivals ``>= t_min + L >= T`` — i.e. strictly beyond the window — so
exchanging outboxes at the barrier delivers every remote message before
any shard could need it.  No shard ever executes past the minimum bound of
its incoming channels; :meth:`~repro.shard.transport.ShardNetwork.
enqueue_remote` re-checks the invariant at delivery and raises
:class:`~repro.shard.ipc.ShardSyncError` on violation.

Windows are *exclusive* of their right endpoint (workers run to
``nextafter(T, 0)``) so a message sent exactly at a barrier time still
lands in the next window; only the final window (and its drain rounds) is
inclusive, matching the single-process ``run(until=duration)`` semantics.
When every shard is idle until some future timer, the hub skips ahead:
``target = min(duration, t_min + L)`` — WAN scenarios with ~40 ms
lookahead take a few hundred barriers for a 30 s run, not millions.

**Topology.**  Hub-and-spoke: workers pre-pickle per-destination outbox
batches (:mod:`repro.shard.ipc`) and the hub routes them as opaque bytes —
no double (un)pickling, no worker-to-worker mesh.  Workers are
``daemon=True`` children (fork where available) and all protocol state
lives inside them; the hub holds only the plan, the lookahead, and merged
statistics, and at the end unions the workers' snapshots for the same
:func:`~repro.protocols.result.assemble` a single-process run uses.  There
is **no cross-process shared mutable state** (enforced by the SHARD-001
staticcheck rule): the pipes carry finished, immutable delivery entries.

Determinism: the partition plan is a pure function of the config, each
worker's simulator is seeded by :func:`~repro.shard.ipc.derive_shard_seed`,
frames are routed and merged in source-shard order, and the hub's merge
iterates shards and replicas in ascending order — the same (seed, shards)
pair reproduces bit-identically.  Relative to the single-process DES,
per-shard RNG streams make *timestamps* differ, but the confirmed
sequence's (instance, round, rank, digest) identity and the safety-audit
verdict are equivalence-checked in ``tests/test_sharded.py``.
"""

from __future__ import annotations

import multiprocessing
import resource
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.runtime.base import Runtime
from repro.runtime.des import DESRuntime
from repro.shard.ipc import decode_frame, encode_frame
from repro.shard.lookahead import Lookahead, derive_lookahead
from repro.shard.partition import ShardPlan, plan_shards
from repro.shard.transport import ShardNetwork
from repro.sim.latency import LatencyModel
from repro.sim.network import NetworkConfig, NetworkStats
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.config import ExperimentCell, ResolvedCell
    from repro.protocols.base import SystemResult
    from repro.protocols.result import RunSnapshot
    from repro.shard.worker import ShardResult

_INFINITY = float("inf")

#: dynamics-log kinds armed identically on every shard (time-driven network
#: dynamics + the install-time rank-manipulation marker): the merge takes
#: them from shard 0 to avoid N-fold duplication
_GLOBAL_EVENT_KINDS = frozenset(
    {
        "partition",
        "heal",
        "degrade",
        "degrade-end",
        "loss-burst",
        "loss-burst-end",
        "attack:rank-manipulation",
    }
)

#: hard cap on post-final drain rounds; the lookahead bound terminates the
#: drain in <= 3 rounds, so hitting this means the barrier math regressed
_MAX_DRAIN_ROUNDS = 64


class ShardWorkerRuntime(DESRuntime):
    """The runtime one shard worker hands its partial system.

    Identical to :class:`~repro.runtime.des.DESRuntime` except the
    transport is a :class:`~repro.shard.transport.ShardNetwork`, which
    splits fan-out into local queue pushes and per-shard outboxes.
    """

    kind = "sharded"

    def __init__(
        self,
        seed: int,
        latency: Optional[LatencyModel],
        config: Optional[NetworkConfig],
        *,
        plan: ShardPlan,
        shard_id: int,
    ) -> None:
        simulator = Simulator(seed=seed)
        network = ShardNetwork(
            simulator, latency=latency, config=config, plan=plan, shard_id=shard_id
        )
        super().__init__(simulator=simulator, network=network)
        self.plan = plan
        self.shard_id = shard_id


@dataclass
class ShardSyncStats:
    """Hub-side synchronization diagnostics for one sharded run."""

    #: barrier rounds driven (including drain rounds)
    rounds: int = 0
    #: post-final drain rounds (in-flight frames delivered after ``duration``)
    drain_rounds: int = 0
    #: cross-shard frames routed hub -> workers
    frames_routed: int = 0
    #: smallest observed (arrival - horizon) across all remote deliveries;
    #: ``inf`` if no cross-shard message was ever received
    min_margin: float = _INFINITY


class ShardedDESRuntime(Runtime):
    """The hub of the conservative-parallel DES.

    Protocol code never runs here — replicas live inside the workers on
    :class:`ShardWorkerRuntime` instances — so the transport/scheduling
    surface of the :class:`~repro.runtime.base.Runtime` seam is
    intentionally left unimplemented.  The hub drives the barrier protocol
    (:meth:`run`), routes cross-shard frames, and aggregates statistics.
    """

    kind = "sharded"

    def __init__(self, config: "ExperimentCell", resolved: "ResolvedCell") -> None:
        if config.runtime != "sharded":
            raise ValueError(
                f"ShardedDESRuntime needs runtime='sharded', got {config.runtime!r}"
            )
        self.config = config
        #: the build's runtime pieces, shipped as-is to every worker
        self.resolved = resolved
        self.latency = resolved.scenario.build_latency(config.n)
        self.plan = plan_shards(
            config.n, config.shards, self.latency, config.shard_strategy
        )
        self.lookahead: Lookahead = derive_lookahead(
            self.plan,
            self.latency,
            network_config=resolved.scenario.network_config(config.n),
            faults=resolved.faults,
        )
        self.trace = TraceRecorder(enabled=False)
        #: merged transport statistics (populated by :meth:`collect_results`)
        self.stats = NetworkStats()
        self.sync = ShardSyncStats()
        self._workers: List[Tuple[Any, Any]] = []  # (pipe, process) per shard
        self._events_by_shard: List[int] = [0] * self.plan.shards
        self._results: Optional[List["ShardResult"]] = None
        self._finished = False

    # ------------------------------------------------------------- lifecycle
    def _spawn(self) -> None:
        """Fork one daemon worker per shard (spawn where fork is absent)."""
        if self._workers:
            return
        # Lazy import breaks the cycle: the worker module imports
        # ShardWorkerRuntime from here at its own top level.
        from repro.shard.worker import worker_entry

        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        for shard_id in range(self.plan.shards):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=worker_entry,
                args=(child_conn, self.config, self.resolved, self.plan, shard_id),
                name=f"repro-shard-{shard_id}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append((parent_conn, process))

    def close(self) -> None:
        """Stop and reap every worker (idempotent; safe after errors)."""
        for conn, _process in self._workers:
            try:
                conn.send_bytes(encode_frame(("stop",)))
            except (BrokenPipeError, OSError):
                pass
        for conn, process in self._workers:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - hung-worker safety net
                process.terminate()
                process.join(timeout=1.0)
            conn.close()
        self._workers = []

    def _recv(self, shard_id: int) -> Tuple[Any, ...]:
        """Receive one frame from a worker, surfacing worker death/errors."""
        conn, process = self._workers[shard_id]
        while not conn.poll(0.2):
            if not process.is_alive():
                raise RuntimeError(
                    f"shard worker {shard_id} died unexpectedly "
                    f"(exit code {process.exitcode})"
                )
        frame = decode_frame(conn.recv_bytes())
        if frame[0] == "error":
            raise RuntimeError(f"shard worker {shard_id} failed:\n{frame[1]}")
        return frame

    # ----------------------------------------------------------- barrier loop
    def _round(
        self, target: float, inclusive: bool, inboxes: List[List[bytes]]
    ) -> Tuple[List[List[bytes]], float, float]:
        """Drive one synchronized window on every shard.

        Sends the routed frames plus the window bound, then gathers each
        worker's flush.  Returns the next round's inboxes, the minimum
        arrival among the frames just routed, and the minimum local
        next-event time across shards (both ``inf`` when empty).
        """
        shards = self.plan.shards
        for shard_id in range(shards):
            conn, _process = self._workers[shard_id]
            conn.send_bytes(
                encode_frame(("run", target, inclusive, inboxes[shard_id]))
            )
        next_inboxes: List[List[bytes]] = [[] for _ in range(shards)]
        pending_min = _INFINITY
        next_min = _INFINITY
        for shard_id in range(shards):
            frame = self._recv(shard_id)
            _kind, out_frames, min_outgoing, next_event, events = frame
            for dest_shard, data in out_frames:
                next_inboxes[dest_shard].append(data)
                self.sync.frames_routed += 1
            if min_outgoing < pending_min:
                pending_min = min_outgoing
            if next_event < next_min:
                next_min = next_event
            self._events_by_shard[shard_id] = events
        self.sync.rounds += 1
        return next_inboxes, pending_min, next_min

    def run(self, until: Optional[float] = None) -> float:
        """Drive all shards to ``until`` through epoch-barrier windows."""
        duration = until if until is not None else self.config.duration
        if self._finished:
            raise RuntimeError("a sharded runtime drives exactly one run")
        self._spawn()
        window = self.lookahead.seconds
        try:
            shards = self.plan.shards
            inboxes: List[List[bytes]] = [[] for _ in range(shards)]
            t_min = 0.0
            while True:
                target = min(duration, t_min + window)
                final = target >= duration
                inboxes, pending_min, next_min = self._round(target, final, inboxes)
                if final:
                    break
                t_min = min(next_min, pending_min)
                if t_min == _INFINITY:
                    t_min = duration  # all shards idle: jump to the end
                elif t_min < target:
                    t_min = target  # conservative floor; cannot move backwards
            # Drain in-flight frames produced by the final inclusive window.
            # The lookahead bound terminates this in <= ~3 rounds: entries a
            # drain round delivers were sent at t >= duration - L, so their
            # own sends arrive > duration and the outboxes run dry.
            drains = 0
            while any(inboxes):
                inboxes, _pending, _next = self._round(duration, True, inboxes)
                self.sync.drain_rounds += 1
                drains += 1
                if drains > _MAX_DRAIN_ROUNDS:  # pragma: no cover - regression guard
                    raise RuntimeError(
                        "sharded drain did not converge: in-flight frames kept "
                        "arriving <= duration after the final window — the "
                        "lookahead bound is broken"
                    )
        except BaseException:
            self.close()
            raise
        self._finished = True
        return duration

    # ------------------------------------------------------------ collection
    def collect_results(self) -> List["ShardResult"]:
        """Gather every worker's :class:`ShardResult`, then stop the fleet."""
        if self._results is None:
            if not self._finished:
                raise RuntimeError("collect_results() requires a finished run()")
            try:
                for conn, _process in self._workers:
                    conn.send_bytes(encode_frame(("collect",)))
                results = []
                for shard_id in range(self.plan.shards):
                    frame = self._recv(shard_id)
                    results.append(frame[1])
            finally:
                self.close()
            self._results = results
            for result in results:
                _merge_network_stats(self.stats, result.snapshot.net_stats)
                if result.min_margin < self.sync.min_margin:
                    self.sync.min_margin = result.min_margin
                self._events_by_shard[result.shard_id] = result.events_processed
        return self._results

    @property
    def events_processed(self) -> int:
        return sum(self._events_by_shard)

    @property
    def worker_peak_rss_bytes(self) -> List[int]:
        """Each worker's self-reported peak RSS (empty before collection)."""
        if self._results is None:
            return []
        return [result.peak_rss_bytes for result in self._results]

    def total_peak_rss_bytes(self) -> int:
        """Peak RSS across the whole process tree, summed.

        Workers self-report ``getrusage(RUSAGE_SELF)`` at collection time
        (they are still alive then), the hub adds its own — this is exact
        and psutil-free.  Note that ``getrusage(RUSAGE_CHILDREN)`` would
        *not* work here: it reports the **max over terminated children**,
        not their sum, so an N-worker fleet would be under-counted N-fold.
        Peaks in different processes need not coincide in time, so the sum
        is an upper bound on true simultaneous footprint — the honest
        direction for a memory budget.
        """
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform != "darwin":  # ru_maxrss is KiB on Linux
            own *= 1024
        return own + sum(self.worker_peak_rss_bytes)


def _merge_network_stats(total: NetworkStats, part: NetworkStats) -> None:
    """Fold one shard's transport stats into the merged view.

    Sends are accounted on the sending shard and deliveries on the
    receiving shard, each exactly once, so every field is a plain sum;
    per-sender maps are disjoint across shards (each sender lives on one
    shard) and merge in shard order.
    """
    total.messages_sent += part.messages_sent
    total.messages_delivered += part.messages_delivered
    total.messages_dropped += part.messages_dropped
    total.messages_duplicated += part.messages_duplicated
    total.bytes_sent += part.bytes_sent
    for cause, count in sorted(part.drops_by_cause.items()):
        total.drops_by_cause[cause] = total.drops_by_cause.get(cause, 0) + count
    for node, count in part.bytes_per_node.items():
        total.bytes_per_node[node] = total.bytes_per_node.get(node, 0) + count
    for node, count in part.messages_per_node.items():
        total.messages_per_node[node] = total.messages_per_node.get(node, 0) + count


class ShardedSystem:
    """Hub-side facade with the ``MultiBFTSystem`` result surface.

    ``run()`` drives the barrier protocol; ``collect_result()`` unions the
    workers' snapshots into one and hands it to the same
    :func:`~repro.protocols.result.assemble` a single-process run uses, so
    the :class:`~repro.protocols.base.SystemResult` (safety/liveness audit
    over every shard's honest commit logs included) has one definition.
    """

    def __init__(self, config: "ExperimentCell", resolved: "ResolvedCell") -> None:
        self.runtime = ShardedDESRuntime(config, resolved)
        self.config = config
        # What the assembly reads, as on MultiBFTSystem.
        self.faults = resolved.faults
        self.proposal_interval = resolved.proposal_interval

    @property
    def plan(self) -> ShardPlan:
        return self.runtime.plan

    @property
    def lookahead(self) -> Lookahead:
        return self.runtime.lookahead

    def run(self) -> "SystemResult":
        self.runtime.run(until=self.config.duration)
        return self.collect_result()

    def collect_result(self) -> "SystemResult":
        from repro.protocols.result import assemble

        parts = [result.snapshot for result in self.runtime.collect_results()]
        merged = _merge_snapshots(
            parts, self.runtime.stats, self.faults.crashes
        )
        result = assemble(merged, self)
        # Sharded-runtime diagnostics ride the metrics row.
        extra = result.metrics.extra
        extra["shards"] = float(self.plan.shards)
        extra["sync_rounds"] = float(self.runtime.sync.rounds)
        extra["lookahead_ms"] = self.lookahead.seconds * 1e3
        if self.runtime.sync.min_margin != _INFINITY:
            extra["sync_min_margin_ms"] = self.runtime.sync.min_margin * 1e3
        return result


def _merge_snapshots(
    parts: Sequence["RunSnapshot"], stats: NetworkStats, crashes: Sequence[Any]
) -> "RunSnapshot":
    """One deployment-wide snapshot from the per-shard ones.

    Per-replica rows are disjoint across shards and union in ascending
    replica id — the order a single process builds them in, and the one
    that fixes Table 1's float sums and the auditor's reference log.
    ``stats`` is the already-summed transport view; ``crashes`` the
    configured :class:`~repro.sim.faults.CrashSpec` tuple.
    """
    from repro.protocols.result import RunSnapshot

    observers = [part for part in parts if part.collector is not None]
    if len(observers) != 1:  # pragma: no cover - structural invariant
        raise RuntimeError(
            f"expected exactly one shard to host the observer, got "
            f"{len(observers)}"
        )
    observer = observers[0]
    host = {replica: part for part in parts for replica in part.commit_logs}
    usage = {r: row for part in parts for r, row in part.resources.items()}
    # One injector appends crash/recover entries as they fire: by time, and
    # at equal times in arming order, which is the order of the crash specs.
    armed: Dict[int, int] = {}
    for spec in crashes:
        armed.setdefault(spec.replica, len(armed))
    # Adversary counters: plain sums, in the injector's own key order.
    adversary: Optional[Dict[str, int]] = None
    for part in parts:
        if part.adversary_stats is not None:
            if adversary is None:
                adversary = dict.fromkeys(part.adversary_stats, 0)
            for key, value in part.adversary_stats.items():
                adversary[key] += value
    return RunSnapshot(
        commit_logs={r: host[r].commit_logs[r] for r in sorted(host)},
        confirmed_fps={r: host[r].confirmed_fps[r] for r in sorted(host)},
        view_change_log=[entry for part in parts for entry in part.view_change_log],
        crash_log=sorted(
            (entry for part in parts for entry in part.crash_log),
            key=lambda entry: (entry[0], armed[entry[1]]),
        ),
        event_log=_merge_dynamics_logs([part.event_log for part in parts]),
        adversary_stats=adversary,
        resources={r: usage[r] for r in sorted(usage)},
        net_stats=stats,
        collector=observer.collector,
        confirmed=observer.confirmed,
        epoch_log=observer.epoch_log,
    )


def _merge_dynamics_logs(
    logs: Sequence[List[Tuple[float, str, str]]]
) -> List[Tuple[float, str, str]]:
    """One chronological dynamics timeline from per-shard event logs.

    Time-driven network dynamics arm identically on every shard, so those
    kinds come from shard 0 only; crash/recover entries are owned by the
    hosting shard and concatenate; attack-window entries concatenate with
    exact-duplicate suppression (identical "on" markers from shards sharing
    a conspiracy collapse, per-shard "-end" stats entries all survive).
    """
    merged: List[Tuple[float, str, str]] = []
    seen: set = set()
    for shard_id, log in enumerate(logs):
        for entry in log:
            kind = entry[1]
            if kind in _GLOBAL_EVENT_KINDS:
                if shard_id != 0:
                    continue
            elif entry in seen:
                continue
            seen.add(entry)
            merged.append(entry)
    merged.sort(key=lambda entry: entry[0])
    return merged
