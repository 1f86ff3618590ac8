"""What a run's result is made of: one snapshot type, one assembly.

A finished replica set is read exactly once, by
:meth:`~repro.protocols.base.MultiBFTSystem.snapshot`, into a
:class:`RunSnapshot` — plain data that pickles.  :func:`assemble` turns a
snapshot into the :class:`SystemResult` every figure, table, sweep cache and
audit verdict is computed from.  A single-process run assembles its own
snapshot; the sharded hub unions its workers' snapshots into one
(:mod:`repro.runtime.sharded`) and calls the same function, so both backends
share one definition of every reported number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.consensus.base import CommitLog
from repro.core.ordering import ConfirmedBlock
from repro.metrics.auditor import (
    ConfirmedFingerprint,
    SafetyAuditReport,
    audit_snapshot,
)
from repro.metrics.collector import RunMetrics, summarise, throughput_series
from repro.metrics.resources import ResourceModel, ResourceUsage
from repro.runtime import NetworkStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocols.base import MultiBFTSystem


@dataclass
class RunSnapshot:
    """Plain-data image of a finished set of replicas (all, or one shard's).

    It aliases the replicas' own logs rather than copying them: the run is
    over, so nothing appends any more, and at n=128 a copy is n² lists.
    """

    #: replica -> instance -> partial-commit log, ascending replica id
    commit_logs: Dict[int, Dict[int, CommitLog]]
    #: replica -> confirmed fingerprints in log order, ascending replica id
    confirmed_fps: Dict[int, List[ConfirmedFingerprint]]
    view_change_log: List[Tuple[float, int, int]]
    crash_log: List[Tuple[float, int, str]]
    event_log: List[Tuple[float, str, str]]
    #: interceptor counters; None when no adversary was installed
    adversary_stats: Optional[Dict[str, int]]
    #: replica -> usage; iteration order is Table 1's float-sum order
    resources: Dict[int, ResourceUsage]
    net_stats: NetworkStats
    #: the observing replica's partial-commit count, confirmed log and
    #: epoch advancements; the count is None on a shard that does not host it
    partially_committed: Optional[int] = None
    confirmed: Tuple[ConfirmedBlock, ...] = ()
    epoch_log: List[Tuple[float, int]] = field(default_factory=list)


@dataclass
class SystemResult:
    """Everything a benchmark needs from one finished run."""

    metrics: RunMetrics
    confirmed: Tuple[ConfirmedBlock, ...]
    network_stats: NetworkStats
    resources: ResourceModel
    throughput_series: List[Tuple[float, float]]
    view_change_times: List[Tuple[float, int, int]]
    epoch_advancements: List[Tuple[float, int]]
    crash_log: List[Tuple[float, int, str]]
    #: unified fault/dynamics/attack timeline: (time, kind, detail)
    dynamics_log: List[Tuple[float, str, str]] = field(default_factory=list)
    #: safety/liveness audit of the honest replicas (always computed)
    audit: Optional[SafetyAuditReport] = None


def assemble(snapshot: RunSnapshot, system: "MultiBFTSystem") -> SystemResult:
    """Build the run's :class:`SystemResult` from its snapshot.

    ``system`` is either facade (single-process or sharded hub): it holds
    the cell and the effective fault view (scenario dynamics and adversary
    folded in) the run was built with.
    """
    config = system.config
    resources = ResourceModel()
    resources.absorb(snapshot.resources)
    # Attribute network byte counts to per-replica resource usage so that
    # the bandwidth numbers reflect what was actually pushed to the NIC.
    for replica_id, byte_count in snapshot.net_stats.bytes_per_node.items():
        usage = resources.usage(replica_id)
        usage.bytes_sent = max(usage.bytes_sent, byte_count)
    metrics = summarise(
        snapshot.confirmed,
        snapshot.partially_committed,
        protocol=config.protocol,
        n=config.n,
        stragglers=system.faults.straggler_count(),
        duration=config.duration,
        resources=resources,
    )
    audit = audit_snapshot(snapshot, system)
    metrics.extra["safety_violations"] = float(len(audit.violations))
    metrics.extra["stalled_instances"] = float(len(audit.stalled_instances))
    for key, value in (snapshot.adversary_stats or {}).items():
        metrics.extra[f"adversary_{key}"] = float(value)
    return SystemResult(
        metrics=metrics,
        confirmed=snapshot.confirmed,
        network_stats=snapshot.net_stats,
        resources=resources,
        throughput_series=throughput_series(snapshot.confirmed, until=config.duration),
        view_change_times=sorted(snapshot.view_change_log),
        epoch_advancements=snapshot.epoch_log,
        crash_log=snapshot.crash_log,
        dynamics_log=snapshot.event_log,
        audit=audit,
    )
