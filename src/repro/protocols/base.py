"""Common scaffolding for the Multi-BFT systems.

A :class:`MultiBFTSystem` builds one :class:`MultiBFTReplica` per replica on
a shared execution :class:`~repro.runtime.base.Runtime` (selected by
``ExperimentCell.runtime``; a sharded system runs one per worker).  Each
replica hosts ``m`` consensus-instance state machines and one global
orderer; the replica that leads an instance paces
its proposals to respect the total block rate (16 blocks/s in WAN, 32 in
LAN, as in the paper's evaluation), slows down if it is a straggler, and
leaves its blocks empty if so.

This module is sans-I/O: it never imports the simulator or the network —
all clock, timer, and transport access goes through the runtime seam.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, TYPE_CHECKING

from repro.consensus.base import CommitLog, InstanceConfig, InstanceContext
from repro.consensus.checkpoint import build_checkpoint
from repro.consensus.messages import CheckpointMessage
from repro.consensus.quorum import quorum_threshold
from repro.core.block import Block
from repro.core.epoch import EpochConfig, EpochPacemaker
from repro.core.ordering import Confirmation, GlobalOrderer
from repro.core.rank import RankState
from repro.metrics.resources import ResourceModel
from repro.protocols.result import RunSnapshot, SystemResult, assemble
from repro.runtime import Runtime, build_runtime
from repro.sim.faults import FaultInjector
from repro.sim.node import Node
from repro.sim.trace import TraceRecorder
from repro.workload.generator import TrafficStream
from repro.workload.transactions import Batch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.config import ExperimentCell, ResolvedCell


NO_EPOCH_MAX_RANK = 2**62

#: stacks built on chained HotStuff: a stable leader and no view change (see
#: :mod:`repro.consensus.hotstuff`), so they refuse a ``propose_timeout``
HOTSTUFF_STACKS = frozenset({"ladon-hotstuff", "iss-hotstuff"})


class ReplicaInstanceContext(InstanceContext):
    """Routes one instance's callbacks through its hosting replica.

    The per-message callbacks (clock, send, multicast, deliver, crypto
    accounting, rank adoption and rank certificates) are instance
    attributes holding the replica's own bound methods, or its rank
    state's, so each call costs one Python frame, not two — these run once
    or more per protocol message and dominate the instance-side overhead.
    They come from ``replica.context_bindings``, built once per replica:
    its m contexts share seven method objects instead of creating 7·m.
    """

    def __init__(self, replica: "MultiBFTReplica", instance_id: int) -> None:
        self.replica = replica
        self.instance_id = instance_id
        (
            self.now, self.send, self.multicast, self.deliver, self.record_crypto,
            self.observe_rank, self.quorum_certificate,
        ) = replica.context_bindings

    def set_timer(self, name: str, delay: float, callback: Callable[[], None]) -> None:
        self.replica.set_timer(f"inst{self.instance_id}:{name}", delay, callback)

    def cancel_timer(self, name: str) -> None:
        self.replica.cancel_timer(f"inst{self.instance_id}:{name}")

    def current_rank(self) -> int:
        return self.replica.rank_state.rank

    def max_rank(self) -> int:
        return self.replica.current_max_rank()

    def min_rank(self) -> int:
        return self.replica.current_min_rank()

    def current_epoch(self) -> int:
        return self.replica.current_epoch()

    def on_view_installed(self, view: int) -> None:
        self.replica._on_view_installed(self.instance_id, view)


class MultiBFTReplica(Node):
    """One replica of a Multi-BFT system.

    Subclasses select the global orderer and may add protocol-specific
    behaviour (epochs for Ladon, the ordering instance for DQBFT); the
    consensus-instance class comes from the protocol's registry row.
    """

    #: set by subclasses
    uses_epochs: bool = False

    #: set by the system when the scenario supplies a non-saturated traffic
    #: profile; None keeps the legacy saturated-workload batch cutting
    traffic_stream: Optional[TrafficStream] = None

    def __init__(
        self,
        node_id: int,
        system: "MultiBFTSystem",
        instance_cls: Type,
        retain_history: bool = True,
    ) -> None:
        super().__init__(node_id, system.runtime)
        config = self.config = system.config
        resources = self.resources = system.resources
        #: the build's effective fault view and pacing (see
        #: :meth:`~repro.bench.config.ExperimentCell.resolve`)
        self.faults = system.faults
        self.proposal_interval = system.proposal_interval
        #: False on every replica but the observer: orderer and instances
        #: keep compact fingerprints only (bounded memory)
        self.retain_history = retain_history
        #: the consensus-instance state machine this stack runs (the other
        #: half of the protocol's registry row)
        self.instance_cls = instance_cls
        #: hot-path binding: per-message accounting avoids a dict lookup.
        #: Bound lazily on first use so the per-replica usage records are
        #: created in first-activity order (the aggregation in Table 1 sums
        #: floats in that order, and it must stay reproducible).
        self._usage = None
        #: trace recorder from the runtime seam (disabled by default); the
        #: confirmation path records into it so runs have a replayable,
        #: digestable event log (see tests/test_determinism.py)
        self._trace = system.runtime.trace
        self._message_handling_cost = resources.cost_model.message_handling
        self._per_byte_cost = resources.cost_model.per_byte
        self._crypto_costs = resources.cost_table()
        self._verify_cost = self._crypto_costs["verify"]
        #: multicast fan-out split (below/above own id), cached per receiver
        #: list identity — recomputed only when registration changes
        self._mc_receivers: Any = None
        self._mc_below: List[int] = []
        self._mc_above: List[int] = []
        self.rank_state = RankState()
        self.quorum = quorum_threshold(config.n)
        self.orderer: GlobalOrderer = self.build_orderer()
        self.instances: Dict[int, Any] = {}
        self.view_change_log: List[Tuple[float, int, int]] = []
        self.pacemaker: Optional[EpochPacemaker] = None
        if self.uses_epochs:
            self.pacemaker = EpochPacemaker(
                EpochConfig(length=config.epoch_length, num_instances=config.n),
                quorum=self.quorum,
            )
        self._checkpoint_sent_for: set = set()
        self._last_checkpoint: Optional[CheckpointMessage] = None
        #: what every :class:`ReplicaInstanceContext` of this replica binds as
        #: (now, send, multicast, deliver, record_crypto, observe_rank,
        #: quorum_certificate)
        rank_state = self.rank_state
        self.context_bindings = (
            self.now, self.send_protocol_message, self.multicast_protocol_message,
            self.on_partial_commit, self.record_crypto_op,
            rank_state.observe, rank_state.quorum_certificate,
        )
        self._build_instances()

    # ------------------------------------------------------------- factories
    def build_orderer(self) -> GlobalOrderer:
        raise NotImplementedError

    def instance_config(self, instance_id: int) -> InstanceConfig:
        """The configuration of ``instance_id`` at this replica."""
        config = self.config
        return InstanceConfig(
            instance_id=instance_id,
            replica_id=self.node_id,
            n=config.n,
            view_change_timeout=config.view_change_timeout,
            propose_timeout=config.propose_timeout,
        )

    def build_instance(self, instance_id: int) -> Any:
        """Construct the state machine for ``instance_id`` at this replica."""
        return self.instance_cls(
            self.instance_config(instance_id),
            ReplicaInstanceContext(self, instance_id),
        )

    def _build_instances(self) -> None:
        for instance_id in range(self.config.n):
            self.instances[instance_id] = self.build_instance(instance_id)
        self._build_route()

    def _build_route(self) -> None:
        """Build the message type -> per-instance handler route table.

        One pointer-hash dict hit plus two list indexes replace instance
        lookup + ``instance.on_message`` + the instance's own type dispatch
        on the per-delivery hot path (:meth:`_receive`).  Messages that miss
        the table (checkpoints, unknown classes and instances) go to
        :meth:`_dispatch`.

        Each replica hosts every instance, so whatever a row stores per
        instance is paid n² times.  A row is ``(verify, functions, hosted)``:
        whether the dispatch site accounts the entry verification (a
        property of the message class, stored once), per instance id the
        *plain function* named by the instance class's ``HANDLERS`` — 8
        bytes in a list, not a bound-method object — and the list of hosted
        instances (one list, shared by all rows) it is called on.
        """
        slots = max(self.instances.keys(), default=-1) + 1
        hosted: List[Any] = [None] * slots
        route: Dict[type, Tuple[bool, List[Optional[Callable[..., None]]], List[Any]]] = {}
        for instance_id, instance in self.instances.items():
            hosted[instance_id] = instance
            for message_cls, name in instance.HANDLERS.items():
                verify = message_cls not in instance.SELF_ACCOUNTING
                row = route.get(message_cls)
                if row is None:
                    row = route[message_cls] = (verify, [None] * slots, hosted)
                elif row[0] != verify:
                    raise ValueError(
                        f"instances of one replica disagree on who accounts the "
                        f"entry verification of {message_cls.__name__}"
                    )
                row[1][instance_id] = getattr(type(instance), name)
        self._route_cls = route

    # ------------------------------------------------------------------ epoch
    def current_epoch(self) -> int:
        return self.pacemaker.current_epoch if self.pacemaker else 0

    def current_max_rank(self) -> int:
        return self.pacemaker.max_rank() if self.pacemaker else NO_EPOCH_MAX_RANK

    def current_min_rank(self) -> int:
        return self.pacemaker.min_rank() if self.pacemaker else 0

    # ------------------------------------------------------------------ start
    def paced_instance_ids(self) -> List[int]:
        """Instance ids driven by the standard batch-proposal pacing.

        Subclasses exclude special instances (e.g. DQBFT's ordering instance)
        that are paced by their own logic.
        """
        return list(self.instances.keys())

    def start(self) -> None:
        """Start instances and, where this replica leads, the proposal pacing."""
        for instance in self.instances.values():
            if hasattr(instance, "start"):
                instance.start()
        interval = self.proposal_interval
        for instance_id in self.paced_instance_ids():
            instance = self.instances[instance_id]
            if instance.leader != self.node_id:
                continue
            # Stagger instances across the proposal interval so the aggregate
            # block rate is smooth rather than bursty.
            offset = (instance_id / self.config.n) * interval
            self._arm_pacing(instance_id, offset + 1e-6)

    def _arm_pacing(self, instance_id: int, delay: float) -> None:
        self.set_timer(
            f"pace:{instance_id}", delay, partial(self._proposal_tick, instance_id)
        )

    # --------------------------------------------------------------- proposing
    def _straggler_factor(self) -> float:
        return self.faults.slowdown_of(self.node_id)

    def _is_straggler(self) -> bool:
        return self.faults.is_straggler(self.node_id)

    def _proposal_tick(self, instance_id: int) -> None:
        if self.crashed:
            return
        instance = self.instances[instance_id]
        interval = self.proposal_interval * self._straggler_factor()
        if instance.leader != self.node_id:
            return  # lost leadership through a view change
        if instance.ready_to_propose():
            batch = self.make_batch(instance_id)
            instance.propose(batch, self.now())
            self._arm_pacing(instance_id, interval)
        else:
            # Not ready (previous round still in flight, epoch boundary, ...):
            # retry shortly without consuming a full proposal slot.
            retry = max(0.02, 0.05 * self.proposal_interval)
            self._arm_pacing(instance_id, retry)

    def make_batch(self, instance_id: int) -> Batch:
        """Cut the batch the leader proposes for ``instance_id``.

        Stragglers propose empty blocks (they "do not include transactions in
        their blocks", Sec. 6.1); everyone else cuts a full synthetic batch
        under the saturated open-loop workload.
        """
        if self._is_straggler():
            return Batch.empty()
        if self.traffic_stream is not None:
            count, mean_at = self.traffic_stream.take(
                instance_id, self.now(), self.config.batch_size
            )
            if count == 0:
                return Batch.empty()
            return Batch.synthetic(count, submitted_at=mean_at)
        # Under the saturated open-loop workload, the transactions in a
        # batch arrived uniformly during the interval since the previous
        # cut, so their mean submission time is half an interval ago.
        queueing = self.proposal_interval / 2.0
        return Batch.synthetic(
            self.config.batch_size,
            submitted_at=max(0.0, self.now() - queueing),
        )

    # ----------------------------------------------------------------- faults
    def on_recover(self) -> None:
        """Re-arm proposal pacing after a crash–recover cycle.

        ``crash()`` drops every timer; the replica's *state* (logs, votes,
        ordering progress) survives, but without this hook a recovered
        leader would never propose again.  View-change timers need no
        resurrection here: they re-arm lazily from the message flow the
        replica sees once it rejoins.
        """
        for instance_id in self.paced_instance_ids():
            instance = self.instances[instance_id]
            if instance.leader != self.node_id:
                continue
            if not self.has_timer(f"pace:{instance_id}"):
                self._arm_pacing(instance_id, 0.01)

    # --------------------------------------------------------------- messaging
    def record_crypto_op(self, operation: str, count: int = 1) -> None:
        """Hot-path crypto accounting: one frame, no registry indirection.

        Accumulates into the same lazily-created per-replica usage record as
        message accounting, so Table 1's first-activity creation order (and
        its float-sum order) is unchanged.
        """
        usage = self._usage
        if usage is None:
            usage = self._usage = self.resources.usage(self.node_id)
        ops = usage.crypto_ops
        ops[operation] = ops.get(operation, 0) + count
        usage.cpu_seconds += self._crypto_costs[operation] * count

    def send_protocol_message(self, dest: int, message: Any) -> None:
        size = message.size_bytes
        usage = self._usage
        if usage is None:
            usage = self._usage = self.resources.usage(self.node_id)
        usage.bytes_sent += size
        usage.cpu_seconds += self._per_byte_cost * size
        node_id = self.node_id
        if dest == node_id:
            # Loopback without a network hop.
            self._dispatch(node_id, message)
            return
        # Node.multicast's checks, in its order, then the transport's one
        # fan-out with one receiver: no Node -> Network frames on every
        # vote.
        if self.crashed:
            return
        interceptor = self.interceptor
        if interceptor is not None and interceptor.outbound(self, dest, message):
            return
        self.runtime.multicast(node_id, (dest,), message)

    def _multicast_split(self, receivers) -> None:
        """Recompute the below/above-own-id fan-out split (registration changed)."""
        node_id = self.node_id
        self._mc_below = [r for r in receivers if r < node_id]
        self._mc_above = [r for r in receivers if r > node_id]
        self._mc_receivers = receivers

    def multicast_protocol_message(self, message: Any) -> None:
        receivers = self.runtime.registered_nodes()
        if receivers is not self._mc_receivers:
            self._multicast_split(receivers)
        sent = len(receivers) - 1
        sent_bytes = message.size_bytes * sent if sent > 0 else 0
        usage = self._usage
        if usage is None:
            usage = self._usage = self.resources.usage(self.node_id)
        usage.bytes_sent += sent_bytes
        usage.cpu_seconds += self._per_byte_cost * sent_bytes
        # Fan out in ascending id order with the local dispatch in our own
        # sorted slot, exactly as a per-receiver loop would: protocol
        # reactions to our own message interleave with the remaining sends
        # the same way they always did.
        if self._mc_below:
            self.multicast(self._mc_below, message)
        self._dispatch(self.node_id, message)
        if self._mc_above:
            self.multicast(self._mc_above, message)

    def _receive(self, sender: int, message: Any) -> None:
        """Transport delivery entry point: accounting + dispatch, one frame.

        Overrides :meth:`Node._receive` to fold the crashed check, the
        per-message resource accounting and the route row into a single
        function.  The route row is the one inlined copy of
        ``ConsensusInstance.on_message`` (entry verify, then the handler):
        this runs once per delivered message (5 M times in the 10 s n=128
        cell), where two more Python frames per call are a visible share of
        the run.  A route miss goes to :meth:`_dispatch`.
        """
        if self.crashed:
            return
        usage = self._usage
        if usage is None:
            usage = self._usage = self.resources.usage(self.node_id)
        usage.messages_handled += 1
        size = message.size_bytes  # the transport read it too
        try:
            instance_id = message.instance
        except AttributeError:  # a foreign payload: _dispatch drops it
            instance_id = -1
        usage.cpu_seconds += (
            self._message_handling_cost + self._per_byte_cost * size
        )
        row = self._route_cls.get(message.__class__)
        if row is not None:
            entry_verify, functions, hosted = row
            if 0 <= instance_id < len(functions):
                function = functions[instance_id]
                if function is not None:
                    if entry_verify:
                        # Entry "verify" for the routed protocol message,
                        # inlined (the instances account it at their
                        # dispatch site; this IS that site on the fast
                        # path).  Same accumulation order as before:
                        # message-handling cost, then verification cost.
                        ops = usage.crypto_ops
                        ops["verify"] = ops.get("verify", 0) + 1
                        usage.cpu_seconds += self._verify_cost
                    function(hosted[instance_id], sender, message)
                    return
        self._dispatch(sender, message)

    def _dispatch(self, sender: int, message: Any) -> None:
        """Deliver ``message`` off the hot route.

        Loopback sends, multicast self-delivery and :meth:`_receive`'s route
        misses come here: a checkpoint goes to :meth:`_on_checkpoint`, a
        message for a hosted instance to its ``on_message`` (the dispatch
        rule), and anything else is dropped.
        """
        if isinstance(message, CheckpointMessage):
            self._on_checkpoint(sender, message)
            return
        instance = self.instances.get(getattr(message, "instance", None))
        if instance is not None:
            instance.on_message(sender, message)

    # ------------------------------------------------------------ commit path
    def on_partial_commit(self, block: Block) -> None:
        now = self.now()
        pacemaker = self.pacemaker
        complete = pacemaker is not None and pacemaker.observe_commit(
            block.instance, block.rank, now
        )
        newly = self.orderer.add_partially_committed(block, now)
        if newly:
            self._confirm(newly)
        if complete:
            self._maybe_checkpoint()

    def _confirm(self, newly: List[Confirmation]) -> None:
        """The tail of every confirmation site: the trace.

        The observer's orderer hands back
        :class:`~repro.core.ordering.ConfirmedBlock` records, every other
        replica's audit fingerprints; the trace reads the same fields from
        either, stamped ``now`` (every site confirms at ``now``).
        """
        trace = self._trace
        if trace.enabled:
            now = self.now()
            for _sn, instance, round_, rank, digest in self.orderer.fingerprints_of(newly):
                trace.record(
                    now, "confirm", self.node_id,
                    instance=instance, round=round_, rank=rank, digest=digest,
                )

    # ------------------------------------------------------------- checkpoints
    def _maybe_checkpoint(self) -> None:
        """Checkpoint the current epoch, once; a commit just found it complete."""
        epoch = self.pacemaker.current_epoch
        if epoch in self._checkpoint_sent_for:
            return
        self._checkpoint_sent_for.add(epoch)
        message = build_checkpoint(self.node_id, epoch, self.orderer.confirmed_count)
        self._last_checkpoint = message
        self.record_crypto_op("sign")
        self.multicast_protocol_message(message)

    def _on_checkpoint(self, sender: int, message: CheckpointMessage) -> None:
        self.record_crypto_op("verify")
        pacemaker = self.pacemaker
        if (
            pacemaker is not None
            and pacemaker.observe_checkpoint(message.epoch, sender)
            and pacemaker.try_advance(self.now())
        ):
            self._on_epoch_advanced(pacemaker.current_epoch)

    def _on_epoch_advanced(self, new_epoch: int) -> None:
        # As the pacemaker prunes its vote state: long-settled epochs are
        # dead, and the previous epoch is kept for the view-change
        # re-broadcast rule.
        self._checkpoint_sent_for = {
            e for e in self._checkpoint_sent_for if e >= new_epoch - 1
        }

    # ------------------------------------------------------------ view change
    def _on_view_installed(self, instance_id: int, view: int) -> None:
        self.view_change_log.append((self.now(), instance_id, view))
        # PBFT view-change messages carry the sender's latest (stable)
        # checkpoint; we model that as a re-broadcast whenever some replica
        # may still lack our vote, so checkpoint quorums lost to message
        # suppression recover with the view change instead of wedging the
        # epoch forever.  Votes are idempotent, so in healthy runs (all n
        # checkpoint votes seen) this is a no-op; checkpoints the cluster
        # has advanced more than one epoch past are stale (the missing
        # voters clearly didn't gate progress) and are never re-sent.
        if (
            self._last_checkpoint is not None
            and self.pacemaker.votes(self._last_checkpoint.epoch) < self.config.n
            and self.current_epoch() <= self._last_checkpoint.epoch + 1
        ):
            self.multicast_protocol_message(self._last_checkpoint)
        instance = self.instances[instance_id]
        if instance.leader == self.node_id and not self.has_timer(f"pace:{instance_id}"):
            self._arm_pacing(instance_id, 0.01)


class MultiBFTSystem:
    """Builds and runs one Multi-BFT deployment on an execution runtime."""

    def __init__(
        self,
        config: "ExperimentCell",
        replica_class: Callable[..., MultiBFTReplica],
        resolved: "ResolvedCell",
        *,
        runtime: Optional[Runtime] = None,
        local_replicas: Optional[Sequence[int]] = None,
    ) -> None:
        """Build the deployment out of ``replica_class`` replicas.

        ``replica_class`` is the protocol's row in
        :mod:`repro.protocols.registry` and ``resolved`` the cell's runtime
        pieces.  The keyword-only parameters exist for the sharded
        backend's worker processes: ``runtime`` injects a pre-built
        :class:`~repro.runtime.sharded.ShardWorkerRuntime` and
        ``local_replicas`` restricts construction to the shard's slice of
        the replica set (fault/adversary arming then skips non-local
        replicas instead of failing).
        """
        self.config = config
        self.scenario = resolved.scenario
        #: the effective fault view: what replicas, the fault injector and
        #: the result assembly read
        self.faults = resolved.faults
        self.block_rate = resolved.block_rate
        self.proposal_interval = resolved.proposal_interval
        if runtime is None:
            if config.runtime == "sharded":
                raise ValueError(
                    "a sharded system cannot be built directly on one "
                    "process; build it via "
                    "repro.protocols.registry.build_system(cell)"
                )
            self.trace = TraceRecorder(enabled=config.trace)
            self.runtime: Runtime = build_runtime(
                config.runtime,
                seed=config.seed,
                latency=self.scenario.build_latency(config.n),
                network_config=self.scenario.network_config(config.n),
                trace=self.trace,
            )
        else:
            self.runtime = runtime
            self.trace = runtime.trace
        self.resources = ResourceModel()
        self.traffic_stream = self.scenario.build_traffic_stream(config.n, config.n)
        # The observer is fixed by the fault config, so it is known before
        # the replicas exist; every *other* replica keeps compact histories
        # only, so long runs are O(active window) in memory.
        self._observer_id = self.observer_id()
        self._local_only = local_replicas is not None
        replica_ids = (
            range(config.n) if local_replicas is None else sorted(local_replicas)
        )
        self.replicas: Dict[int, MultiBFTReplica] = {}
        for replica_id in replica_ids:
            replica = replica_class(
                replica_id, self, retain_history=replica_id == self._observer_id
            )
            if self.traffic_stream is not None:
                replica.traffic_stream = self.traffic_stream
            self.replicas[replica_id] = replica
        self.fault_injector = FaultInjector(
            self.runtime,
            self.replicas,
            self.faults,
            local_only=self._local_only,
            total_nodes=config.n,
        )
        #: the armed perturbation applicator (``.applied`` holds the
        #: effective decision vector after the run); None when unperturbed
        self.perturbation = None
        if config.perturbation is not None:
            # Lazy import: the sim/protocol layers never depend on the fuzz
            # package unless a perturbed run actually asks for it.
            from repro.fuzz.perturb import SchedulePerturbation

            set_perturbation = getattr(
                self.runtime, "set_delivery_perturbation", None
            )
            if set_perturbation is None:
                raise ValueError(
                    f"runtime {config.runtime!r} does not support delivery "
                    "perturbation"
                )
            self.perturbation = SchedulePerturbation(config.perturbation)
            set_perturbation(self.perturbation)

    # ------------------------------------------------------------------- run
    def observer_id(self) -> int:
        """The replica whose log and metrics the experiment reports.

        Pick the lowest-id replica that neither straggles, crashes, nor runs
        any adversarial behaviour, so the reported numbers reflect an honest,
        live participant (as a client would observe).
        """
        faults = self.faults
        excluded = set(faults.straggler_map())
        excluded.update(spec.replica for spec in faults.crashes)
        excluded.update(faults.adversarial_replicas())
        for replica_id in range(self.config.n):
            if replica_id not in excluded:
                return replica_id
        return 0

    def start(self) -> None:
        """Arm faults and start every (local) replica — without running.

        The sharded backend's workers call this once at build time; the
        hub's barrier protocol then drives the runtime in windows instead
        of one :meth:`run` call.
        """
        self.fault_injector.arm()
        for replica in self.replicas.values():
            replica.start()

    def run(self) -> SystemResult:
        self.start()
        self.runtime.run(until=self.config.duration)
        return self.collect_result()

    def collect_result(self) -> SystemResult:
        return assemble(self.snapshot(), self)

    def snapshot(self) -> RunSnapshot:
        """Read the finished (local) replicas into plain data.

        The only walk over replica-side result state; everything derived
        from it is :func:`~repro.protocols.result.assemble`'s business.
        """
        commit_logs: Dict[int, Dict[int, CommitLog]] = {}
        confirmed_fps: Dict[int, list] = {}
        view_changes: List[Tuple[float, int, int]] = []
        for replica_id, replica in self.replicas.items():
            # Instances keep a compact columnar commit log for exactly this
            # purpose — full Block histories exist only on the
            # observer.
            commit_logs[replica_id] = {
                instance_id: instance.commit_log
                for instance_id, instance in replica.instances.items()
            }
            confirmed_fps[replica_id] = replica.orderer.confirmed_fingerprints()
            view_changes.extend(replica.view_change_log)
        injector = self.fault_injector
        snapshot = RunSnapshot(
            commit_logs=commit_logs,
            confirmed_fps=confirmed_fps,
            view_change_log=view_changes,
            crash_log=list(injector.crash_log),
            event_log=list(injector.event_log),
            adversary_stats=(
                injector.adversary_stats() if injector.interceptors else None
            ),
            resources=dict(self.resources.per_replica()),
            net_stats=self.runtime.stats,
        )
        observer = self.replicas.get(self._observer_id)
        if observer is not None:  # a shard worker may not host the observer
            # Each block an instance delivers is one commit-log record, so
            # the logs count the partial commits; DQBFT's ordering instance
            # is not paced and its blocks are not counted.
            snapshot.partially_committed = sum(
                len(observer.instances[instance_id].commit_log)
                for instance_id in observer.paced_instance_ids()
            )
            snapshot.confirmed = observer.orderer.confirmed
            if observer.pacemaker is not None:
                snapshot.epoch_log = list(observer.pacemaker.advancement_log)
        return snapshot
