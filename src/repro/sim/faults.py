"""Fault, straggler, and network-dynamics injection.

The evaluation distinguishes (Sec. 6.1 "Straggler settings"):

* **honest stragglers** — leaders that follow the protocol but propose at
  ``1/k`` of the normal rate, without triggering timeouts, and do not include
  transactions in their blocks;
* **Byzantine stragglers** — honest-straggler behaviour plus rank
  manipulation: they collect more than 2f+1 rank reports, discard the highest
  and use only the lowest 2f+1 (Sec. 4.4, Appendix B case 3); declared as
  the adversary catalog's :class:`~repro.adversary.attacks.RankManipulation`;
* **crash faults** — a replica stops at a configured time; the instance it
  leads recovers through a view change (Fig. 8).

Beyond the paper's settings, the scenario engine adds **network dynamics**:
scheduled partitions (split/heal), link degradation windows, and message-loss
bursts.  All of them — crashes included — are armed by one
:class:`FaultInjector` onto a single simulator timeline, so a scenario is
simply a set of declarative specs rather than ad-hoc wiring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adversary.interceptor import AdversaryInterceptor
    from repro.adversary.spec import AdversarySpec
    from repro.runtime.base import Runtime


@dataclass(frozen=True)
class StragglerSpec:
    """One straggling leader.

    ``slowdown`` is the ``k`` of the paper: the straggler proposes blocks at
    ``1/k`` of the normal leaders' rate.
    """

    replica: int
    slowdown: float = 10.0

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise ValueError("slowdown k must be >= 1")


@dataclass(frozen=True)
class CrashSpec:
    """Crash ``replica`` at virtual time ``at`` (seconds)."""

    replica: int
    at: float
    recover_at: Optional[float] = None


@dataclass(frozen=True)
class PartitionSpec:
    """Split the network into ``groups`` at ``at``; optionally heal later.

    ``groups`` are tuples of replica ids; replicas absent from every group
    are isolated for the duration.  Overlapping partitions are not modelled:
    a later split replaces the active one, ``heal_at`` restores full
    connectivity.
    """

    at: float
    groups: Tuple[Tuple[int, ...], ...]
    heal_at: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("partition needs at least one group")
        if self.heal_at is not None and self.heal_at <= self.at:
            raise ValueError("heal must come after the split")
        seen: set = set()
        for group in self.groups:
            for member in group:
                if member in seen:
                    raise ValueError(
                        f"replica {member} appears in more than one partition group"
                    )
                seen.add(member)


@dataclass(frozen=True)
class DegradationSpec:
    """Scale every link's propagation delay by ``factor`` during a window."""

    at: float
    until: float
    factor: float = 4.0

    def __post_init__(self) -> None:
        if self.until <= self.at:
            raise ValueError("degradation window must have positive length")
        if self.factor <= 0:
            raise ValueError("degradation factor must be positive")


@dataclass(frozen=True)
class LossBurstSpec:
    """Raise the uniform message-loss probability during a window."""

    at: float
    until: float
    drop_probability: float = 0.2

    def __post_init__(self) -> None:
        if self.until <= self.at:
            raise ValueError("loss-burst window must have positive length")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop probability must be in [0, 1)")


def _reject_overlaps(kind: str, windows: Sequence[Tuple[float, float]]) -> None:
    ordered = sorted(windows)
    for (_, prev_until), (next_at, _) in zip(ordered, ordered[1:]):
        if next_at < prev_until:
            raise ValueError(f"{kind} windows overlap (t={next_at} < t={prev_until})")


@dataclass
class FaultConfig:
    """All fault, network-dynamics, and adversary injection for one run.

    ``adversary`` carries a :class:`~repro.adversary.spec.AdversarySpec`:
    its :class:`~repro.adversary.attacks.RankManipulation` attacks are
    lowered onto the straggler machinery here (so the proposal hot path
    stays one dict lookup), while its message-layer attacks are armed as
    per-node interceptors by :class:`FaultInjector`.
    """

    stragglers: Tuple[StragglerSpec, ...] = ()
    crashes: Tuple[CrashSpec, ...] = ()
    partitions: Tuple[PartitionSpec, ...] = ()
    degradations: Tuple[DegradationSpec, ...] = ()
    loss_bursts: Tuple[LossBurstSpec, ...] = ()
    adversary: Optional["AdversarySpec"] = None

    def __post_init__(self) -> None:
        # The straggler queries sit on the proposal hot path (every pacing
        # tick); precompute the replica -> spec map instead of rescanning the
        # tuple per call.
        self._straggler_by_replica: Dict[int, StragglerSpec] = {
            spec.replica: spec for spec in self.stragglers
        }
        self._rank_manipulators: FrozenSet[int] = frozenset()
        if self.adversary is not None:
            # Rank manipulation lowers onto the straggler machinery; a
            # catalog attack wins over a plain straggler spec for the same
            # replica (the attack is the stronger statement).
            for spec in self.adversary.straggler_specs():
                self._straggler_by_replica[spec.replica] = spec
            self._rank_manipulators = self.adversary.rank_manipulators()
        # Degradation and loss-burst windows restore the pre-window state on
        # expiry, so overlapping windows of one kind would quietly cancel each
        # other — reject them up front.
        _reject_overlaps("degradation", [(d.at, d.until) for d in self.degradations])
        _reject_overlaps("loss-burst", [(b.at, b.until) for b in self.loss_bursts])

    @classmethod
    def with_stragglers(
        cls,
        count: int,
        n: int,
        slowdown: float = 10.0,
        byzantine: bool = False,
        seed: int = 0,
    ) -> "FaultConfig":
        """Randomly select ``count`` straggling leaders out of ``n`` replicas.

        Matches the paper's setting where stragglers are chosen at random;
        the selection is deterministic for a given seed.
        """
        if count < 0 or count > n:
            raise ValueError("straggler count must be within [0, n]")
        rng = random.Random(seed)
        replicas = tuple(sorted(rng.sample(range(n), count)))
        if byzantine and replicas:
            # Lazy: the adversary package imports StragglerSpec from here.
            from repro.adversary.attacks import RankManipulation
            from repro.adversary.spec import AdversarySpec

            return cls(
                adversary=AdversarySpec(
                    (RankManipulation(replicas=replicas, slowdown=slowdown),)
                )
            )
        return cls(
            stragglers=tuple(StragglerSpec(replica=r, slowdown=slowdown) for r in replicas)
        )

    def with_adversary(self, adversary: "AdversarySpec") -> "FaultConfig":
        """A copy with ``adversary``'s attacks added to those already configured."""
        merged = (
            self.adversary.merge(adversary) if self.adversary is not None else adversary
        )
        return replace(self, adversary=merged)

    def straggler_map(self) -> Dict[int, StragglerSpec]:
        return dict(self._straggler_by_replica)

    def is_straggler(self, replica: int) -> bool:
        return replica in self._straggler_by_replica

    def is_byzantine(self, replica: int) -> bool:
        """Whether ``replica`` manipulates ranks (a ``RankManipulation`` attack)."""
        return replica in self._rank_manipulators

    def slowdown_of(self, replica: int) -> float:
        spec = self._straggler_by_replica.get(replica)
        return spec.slowdown if spec is not None else 1.0

    def straggler_count(self) -> int:
        """Stragglers including adversarial rank manipulators."""
        return len(self._straggler_by_replica)

    def adversarial_replicas(self) -> FrozenSet[int]:
        """Replicas running any Byzantine behaviour (never fit observers)."""
        return self.adversary.replicas() if self.adversary is not None else frozenset()


class FaultInjector:
    """Arms crash/recovery and network-dynamics events on one timeline.

    Crash and recovery act on nodes; partitions, degradation windows, and
    loss bursts act on the runtime's network surface.  Every fired event is
    appended to ``event_log``; ``crash_log`` keeps the historical
    crash/recover-only view.
    """

    def __init__(
        self,
        runtime: "Runtime",
        nodes: Dict[int, "object"],
        config: FaultConfig,
        *,
        local_only: bool = False,
        total_nodes: Optional[int] = None,
    ) -> None:
        # ``runtime`` supplies both the scheduling surface (schedule_at /
        # now) and the dynamics surface (set_partition / heal_partition /
        # set_latency_scale / set_drop_probability / drop_probability).
        #
        # ``local_only`` marks a sharded worker's partial view: ``nodes``
        # holds one shard's replicas, so node-scoped specs (crashes,
        # adversary corruption) naming non-local replicas are skipped
        # instead of rejected — the shard that hosts them arms them.
        # ``total_nodes`` then supplies the deployment's full n (interceptor
        # quorum math must not see the shard size).
        self.runtime = runtime
        self.nodes = nodes
        self.config = config
        self.local_only = local_only
        self.total_nodes = total_nodes
        self.crash_log: List[Tuple[float, int, str]] = []
        self.event_log: List[Tuple[float, str, str]] = []
        #: per-replica adversary interceptors installed by :meth:`arm`
        self.interceptors: Dict[int, "AdversaryInterceptor"] = {}

    def _record(self, kind: str, detail: str) -> None:
        """Append to the timeline and, when tracing, to the schedule trace.

        Fault-injector actions change the future schedule (crashes drop
        timers, partitions drop messages), so a replayable trace must see
        them: category ``fault`` mirrors every ``event_log`` entry.
        """
        now = self.runtime.now()
        self.event_log.append((now, kind, detail))
        trace = getattr(self.runtime, "trace", None)
        if trace is not None and trace.enabled:
            trace.record(now, "fault", None, kind=kind, detail=detail)

    def arm(self) -> None:
        """Install all configured events on the runtime timeline."""
        for spec in self.config.crashes:
            self._arm_crash(spec)
        for partition in self.config.partitions:
            self._arm_partition(partition)
        for degradation in self.config.degradations:
            self._arm_degradation(degradation)
        for burst in self.config.loss_bursts:
            self._arm_loss_burst(burst)
        if self.config.adversary is not None:
            self.interceptors = self.config.adversary.install(
                self.runtime,
                self.nodes,
                event_log=self.event_log,
                n=self.total_nodes,
                local_only=self.local_only,
            )

    def adversary_stats(self) -> Dict[str, int]:
        """Aggregate interceptor counters across all adversarial replicas."""
        totals = {"suppressed": 0, "delayed": 0, "forged": 0}
        for interceptor in self.interceptors.values():
            for key, value in interceptor.stats().items():
                totals[key] += value
        return totals

    # ----------------------------------------------------------- node faults
    def _arm_crash(self, spec: CrashSpec) -> None:
        node = self.nodes.get(spec.replica)
        if node is None:
            if self.local_only:
                return  # armed by the shard hosting the replica
            raise KeyError(f"cannot crash unknown replica {spec.replica}")

        def _crash() -> None:
            node.crash()
            self.crash_log.append((self.runtime.now(), spec.replica, "crash"))
            self._record("crash", f"replica={spec.replica}")

        self.runtime.schedule_at(spec.at, _crash, label=f"crash:{spec.replica}")

        if spec.recover_at is not None:
            if spec.recover_at <= spec.at:
                raise ValueError("recovery must come after the crash")

            def _recover() -> None:
                node.recover()
                self.crash_log.append((self.runtime.now(), spec.replica, "recover"))
                self._record("recover", f"replica={spec.replica}")

            self.runtime.schedule_at(
                spec.recover_at, _recover, label=f"recover:{spec.replica}"
            )

    # ------------------------------------------------------ network dynamics
    def _arm_partition(self, spec: PartitionSpec) -> None:
        runtime = self.runtime

        def _split() -> None:
            runtime.set_partition(spec.groups)
            self._record("partition", f"groups={spec.groups}")

        runtime.schedule_at(spec.at, _split, label="partition:split")
        if spec.heal_at is not None:

            def _heal() -> None:
                runtime.heal_partition()
                self._record("heal", "")

            runtime.schedule_at(spec.heal_at, _heal, label="partition:heal")

    def _arm_degradation(self, spec: DegradationSpec) -> None:
        runtime = self.runtime

        def _begin() -> None:
            runtime.set_latency_scale(spec.factor)
            self._record("degrade", f"factor={spec.factor}")

        def _end() -> None:
            runtime.set_latency_scale(1.0)
            self._record("degrade-end", "")

        runtime.schedule_at(spec.at, _begin, label="degrade:begin")
        runtime.schedule_at(spec.until, _end, label="degrade:end")

    def _arm_loss_burst(self, spec: LossBurstSpec) -> None:
        runtime = self.runtime
        baseline = runtime.drop_probability

        def _begin() -> None:
            runtime.set_drop_probability(spec.drop_probability)
            self._record("loss-burst", f"p={spec.drop_probability}")

        def _end() -> None:
            runtime.set_drop_probability(baseline)
            self._record("loss-burst-end", "")

        runtime.schedule_at(spec.at, _begin, label="loss:begin")
        runtime.schedule_at(spec.until, _end, label="loss:end")
