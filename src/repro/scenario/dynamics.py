"""Declarative network-dynamics timeline events.

A timeline holds the region-aware events defined here — a
:class:`Partition` may group replicas by region name, a
:class:`RegionOutage` crashes every replica placed in a region, and
:class:`Churn` unrolls into a rolling crash/recover schedule — next to the
placement-free specs of :mod:`repro.sim.faults` it takes as they are
(:class:`~repro.sim.faults.DegradationSpec`,
:class:`~repro.sim.faults.LossBurstSpec`).  :func:`resolve_dynamics` lowers
a timeline into a concrete :class:`~repro.sim.faults.FaultConfig` for a
given deployment size and placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.scenario.topology import TopologySpec
from repro.sim.faults import (
    CrashSpec,
    DegradationSpec,
    FaultConfig,
    LossBurstSpec,
    PartitionSpec,
)

#: a partition group member: a replica id or a region name
GroupMember = Union[int, str]


@dataclass(frozen=True)
class Partition:
    """Split the network at ``at``; heal at ``heal_at`` (None = permanent).

    Group members may be replica ids or region names; a region name expands
    to every replica placed there.  Replicas in no group are isolated.
    """

    at: float
    groups: Tuple[Tuple[GroupMember, ...], ...]
    heal_at: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("partition needs at least one group")
        if self.heal_at is not None and self.heal_at <= self.at:
            raise ValueError("heal must come after the split")


@dataclass(frozen=True)
class RegionOutage:
    """Crash every replica in ``region`` at ``at``; recover them later."""

    region: str
    at: float
    recover_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.recover_at is not None and self.recover_at <= self.at:
            raise ValueError("recovery must come after the outage")


@dataclass(frozen=True)
class Churn:
    """Rolling node churn: one replica down at a time.

    Cycle ``k`` crashes ``replicas[k % len(replicas)]`` at
    ``start + k * period`` and recovers it ``downtime`` seconds later.
    ``downtime < period`` keeps at most one replica down at once, so quorum
    is preserved for any ``n >= 4``.  ``replicas`` defaults to every replica
    except 0 (which stays up as a stable observer).
    """

    start: float = 2.0
    period: float = 5.0
    downtime: float = 2.5
    cycles: int = 4
    replicas: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.period <= 0 or self.downtime <= 0:
            raise ValueError("period and downtime must be positive")
        if self.downtime >= self.period:
            raise ValueError("downtime must be shorter than the churn period")
        if self.cycles <= 0:
            raise ValueError("need at least one churn cycle")


DynamicsEvent = Union[Partition, RegionOutage, DegradationSpec, LossBurstSpec, Churn]


def _resolve_group(
    group: Tuple[GroupMember, ...], topology: TopologySpec, n: int
) -> Tuple[int, ...]:
    members: List[int] = []
    for member in group:
        if isinstance(member, str):
            replicas = topology.replicas_in_region(member, n)
            if not replicas:
                raise ValueError(f"partition group region {member!r} holds no replicas")
            members.extend(replicas)
        else:
            if not 0 <= member < n:
                raise ValueError(f"partition group replica {member} out of range")
            members.append(member)
    return tuple(sorted(set(members)))


def resolve_dynamics(
    events: Tuple[DynamicsEvent, ...],
    base: FaultConfig,
    topology: TopologySpec,
    n: int,
) -> FaultConfig:
    """Lower a declarative timeline onto ``base`` for an ``n``-replica run."""
    crashes: List[CrashSpec] = list(base.crashes)
    partitions: List[PartitionSpec] = list(base.partitions)
    degradations: List[DegradationSpec] = list(base.degradations)
    loss_bursts: List[LossBurstSpec] = list(base.loss_bursts)

    for event in events:
        if isinstance(event, Partition):
            groups = tuple(_resolve_group(group, topology, n) for group in event.groups)
            partitions.append(
                PartitionSpec(at=event.at, groups=groups, heal_at=event.heal_at)
            )
        elif isinstance(event, RegionOutage):
            replicas = topology.replicas_in_region(event.region, n)
            if not replicas:
                raise ValueError(f"outage region {event.region!r} holds no replicas")
            crashes.extend(
                CrashSpec(replica=replica, at=event.at, recover_at=event.recover_at)
                for replica in replicas
            )
        elif isinstance(event, DegradationSpec):
            degradations.append(event)
        elif isinstance(event, LossBurstSpec):
            loss_bursts.append(event)
        elif isinstance(event, Churn):
            pool = event.replicas or tuple(range(1, n)) or (0,)
            for replica in pool:
                if not 0 <= replica < n:
                    raise ValueError(f"churn replica {replica} out of range")
            for cycle in range(event.cycles):
                replica = pool[cycle % len(pool)]
                at = event.start + cycle * event.period
                crashes.append(
                    CrashSpec(replica=replica, at=at, recover_at=at + event.downtime)
                )
        else:
            raise TypeError(f"unknown dynamics event {event!r}")

    return FaultConfig(
        stragglers=base.stragglers,
        crashes=tuple(crashes),
        partitions=tuple(partitions),
        degradations=tuple(degradations),
        loss_bursts=tuple(loss_bursts),
        adversary=base.adversary,
    )
