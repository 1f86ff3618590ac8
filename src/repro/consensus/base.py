"""Consensus instance base class and host context.

A :class:`ConsensusInstance` never touches the network directly; the hosting
replica supplies an :class:`InstanceContext` whose callbacks route messages,
deliver partially committed blocks, manage timers and account crypto
operations.  This keeps the instance state machines unit-testable without a
simulator.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.block import Block
from repro.core.rank import RankCertificate
from repro.consensus.quorum import quorum_threshold


@dataclass(slots=True)
class InstanceConfig:
    """Static configuration of one consensus instance at one replica.

    It holds only what instances read.  Batch sizes and epoch lengths live
    with the hosting replica, which cuts the batches and runs the epochs.
    A variant protocol, such as the fuzzer's planted bugs in the tests, is a
    subclass of an instance class, not a value in here.
    """

    instance_id: int
    replica_id: int
    n: int
    view_change_timeout: float = 10.0
    #: follower-side leader-failure detector: expect a proposal within this
    #: many seconds or start a view change; None = unarmed.  Only PBFT
    #: instances read it: HotStuff has no view change
    propose_timeout: Optional[float] = None
    #: :func:`quorum_threshold` of ``n``, computed once here: the vote and
    #: proposal handlers read it on every message
    quorum: int = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError("a BFT system needs at least n = 4 replicas")
        if self.instance_id < 0 or self.replica_id < 0:
            raise ValueError("ids must be non-negative")
        self.quorum = quorum_threshold(self.n)

    def leader_for_view(self, view: int) -> int:
        """Round-robin leader schedule within the instance.

        View 0's leader is the replica whose id equals the instance id (the
        paper deploys one instance per replica, each replica leading its own
        instance), and subsequent views rotate.
        """
        return (self.instance_id + view) % self.n


class CommitLog:
    """Compact partial-commit history of one instance at one replica.

    What the safety auditor reads (:func:`repro.metrics.auditor.audit_logs`):
    iterating yields ``(round, digest)`` per commit, in commit order, and
    ``last_at`` is the time of the latest commit (None before the first).
    The columns are an ``array('q')`` of rounds and a list of references to
    the consensus entries' own digest strings — 16 B per commit instead of a
    3-tuple and a float.  They are allocated by the first :meth:`record`:
    every replica hosts every instance, so an empty log is paid n² times.
    Sharded workers ship it in their run snapshot, so it pickles as the
    rounds' raw bytes, the digest list and ``last_at``: the default slots
    reduction builds a state dict and an array reduction per log, and the
    pickler's memo keeps every one of them alive until the dump ends.
    """

    __slots__ = ("rounds", "digests", "last_at")

    def __init__(self) -> None:
        self.rounds: Optional[array] = None
        self.digests: Optional[List[str]] = None
        self.last_at: Optional[float] = None

    def record(self, round_: int, digest: str, at: float) -> None:
        """Append one commit; ``at`` never decreases (simulated time)."""
        if self.rounds is None:
            self.rounds = array("q")
            self.digests = []
        self.rounds.append(round_)
        self.digests.append(digest)
        self.last_at = at

    def __len__(self) -> int:
        return 0 if self.rounds is None else len(self.rounds)

    def __iter__(self) -> Iterator[Tuple[int, str]]:
        if self.rounds is None:
            return iter(())
        return zip(self.rounds, self.digests)

    def __reduce__(self):
        if self.rounds is None:
            return (CommitLog, ())
        return (_load_commit_log, (self.rounds.tobytes(), self.digests, self.last_at))


def _load_commit_log(rounds: bytes, digests: List[str], last_at: float) -> CommitLog:
    """Unpickle a non-empty :class:`CommitLog` (see its ``__reduce__``)."""
    log = CommitLog()
    log.rounds = array("q", rounds)
    log.digests = digests
    log.last_at = last_at
    return log


class InstanceContext:
    """Host callbacks an instance uses to interact with the outside world."""

    def now(self) -> float:
        raise NotImplementedError

    def send(self, dest: int, message: Any) -> None:
        raise NotImplementedError

    def multicast(self, message: Any) -> None:
        """Send to every replica, including this one (self-delivery is local)."""
        raise NotImplementedError

    def deliver(self, block: Block) -> None:
        """Report a partially committed block to the global ordering layer."""
        raise NotImplementedError

    def set_timer(self, name: str, delay: float, callback: Callable[[], None]) -> None:
        raise NotImplementedError

    def cancel_timer(self, name: str) -> None:
        raise NotImplementedError

    def record_crypto(self, operation: str, count: int = 1) -> None:
        """Account a cryptographic operation (sign/verify/aggregate)."""

    def current_rank(self) -> int:
        """The replica's global curRank (shared across instances)."""
        return 0

    def observe_rank(self, rank: int, certificate: Any = None, signer_count: int = 0) -> None:
        """Adopt ``rank`` into curRank if higher (``RankState.observe``)."""

    def quorum_certificate(self, signer_count: int) -> RankCertificate:
        """curRank certified by ``signer_count`` signers: what a rank report carries."""
        return RankCertificate(rank=self.current_rank(), signer_count=signer_count)

    def max_rank(self) -> int:
        """maxRank of the replica's current epoch."""
        return 2**62

    def min_rank(self) -> int:
        """minRank of the replica's current epoch."""
        return 0

    def current_epoch(self) -> int:
        return 0

    def on_view_installed(self, view: int) -> None:
        """The instance installed ``view`` (e.g. to log view-change completion)."""


@dataclass
class CollectingContext(InstanceContext):
    """An in-memory context for unit tests: records everything it is told."""

    time: float = 0.0
    sent: List[Tuple[int, Any]] = field(default_factory=list)
    multicasts: List[Any] = field(default_factory=list)
    delivered: List[Block] = field(default_factory=list)
    crypto_ops: Dict[str, int] = field(default_factory=dict)
    timers: Dict[str, Tuple[float, Callable[[], None]]] = field(default_factory=dict)
    rank: int = 0
    epoch: int = 0
    epoch_length: int = 64

    def now(self) -> float:
        return self.time

    def send(self, dest: int, message: Any) -> None:
        self.sent.append((dest, message))

    def multicast(self, message: Any) -> None:
        self.multicasts.append(message)

    def deliver(self, block: Block) -> None:
        self.delivered.append(block)

    def set_timer(self, name: str, delay: float, callback: Callable[[], None]) -> None:
        self.timers[name] = (self.time + delay, callback)

    def cancel_timer(self, name: str) -> None:
        self.timers.pop(name, None)

    def record_crypto(self, operation: str, count: int = 1) -> None:
        self.crypto_ops[operation] = self.crypto_ops.get(operation, 0) + count

    def current_rank(self) -> int:
        return self.rank

    def observe_rank(self, rank: int, certificate: Any = None, signer_count: int = 0) -> None:
        if rank > self.rank:
            self.rank = rank

    def max_rank(self) -> int:
        return (self.epoch + 1) * self.epoch_length - 1

    def min_rank(self) -> int:
        return self.epoch * self.epoch_length

    def current_epoch(self) -> int:
        return self.epoch

    def fire_timer(self, name: str) -> None:
        """Test helper: fire a pending timer immediately."""
        deadline, callback = self.timers.pop(name)
        self.time = max(self.time, deadline)
        callback()


class EpochStop:
    """The epoch rule of Algorithms 2 and 3, one copy for both Ladon stacks.

    A leader that proposes ``maxRank(e)`` proposes nothing more until the
    context reports a later epoch.
    """

    #: the epoch whose ``maxRank`` this leader proposed (-1: none yet)
    _epoch_of_stop = -1

    def _cap_rank(self, rank: int, max_rank: int, epoch: int) -> int:
        """``rank`` capped at ``max_rank``; proposing the cap stops this leader for ``epoch``."""
        if rank >= max_rank:
            self._epoch_of_stop = epoch
            return max_rank
        return rank

    def _stopped_for_epoch(self) -> bool:
        stop = self._epoch_of_stop
        # a leader that never proposed a maxRank reads no epoch
        return stop >= 0 and stop == self.context.current_epoch()


class ConsensusInstance:
    """Common scaffolding for all instance implementations."""

    #: message class -> name of the method handling it.  One table per
    #: class, not per instance: the hosting replica resolves the names once
    #: into its route (``MultiBFTReplica._build_route``) and
    #: :meth:`on_message` resolves them per call.
    HANDLERS: Mapping[type, str] = MappingProxyType({})

    #: message classes whose handlers account their own entry verification
    #: (instead of the dispatch site doing it) — subclasses that must record
    #: extra crypto *before* the entry verify (e.g. Mir's per-batch request
    #: re-verification) list those classes here to keep the accounting order
    #: bit-exact with the historical per-handler recording
    SELF_ACCOUNTING: frozenset = frozenset()

    def __init__(self, config: InstanceConfig, context: InstanceContext) -> None:
        self.config = config
        self.context = context
        self.view = 0

    # ------------------------------------------------------------ properties
    @property
    def instance_id(self) -> int:
        return self.config.instance_id

    @property
    def replica_id(self) -> int:
        return self.config.replica_id

    @property
    def leader(self) -> int:
        return self.config.leader_for_view(self.view)

    @property
    def is_leader(self) -> bool:
        return self.replica_id == self.leader

    # --------------------------------------------------------------- protocol
    def on_message(self, sender: int, message: Any) -> None:
        """The dispatch rule; ``MultiBFTReplica._receive`` inlines its one hot copy.

        A class missing from :attr:`HANDLERS` is dropped.
        """
        cls = message.__class__
        name = self.HANDLERS.get(cls)
        if name is not None:
            # Every protocol message costs one signature verification on
            # receipt; it is accounted here so the handlers stay free of the
            # per-message accounting frame.
            if cls not in self.SELF_ACCOUNTING:
                self.context.record_crypto("verify")
            getattr(self, name)(sender, message)

    def on_view_installed(self, view: int) -> None:
        """Hook: a new view was installed; the host hears of it via the context."""
        self.context.on_view_installed(view)

    def propose(self, txs: Tuple, now: float) -> Optional[Any]:
        """Leader-only: propose a batch.  Returns the proposal or None."""
        raise NotImplementedError

    def ready_to_propose(self) -> bool:
        """Whether the leader may propose its next block right now."""
        raise NotImplementedError
