"""Safety and liveness auditing of a finished run.

Every simulated run self-verifies the claims the paper's fault model makes
(`f < n/3` ⇒ safety): after the run stops, :func:`audit_snapshot` — the
audit half of :func:`repro.protocols.result.assemble`, on every backend —
inspects the *honest* replicas' logs and checks

* **partial-commit agreement** — no two honest replicas committed
  different digests at the same (instance, round): the classic safety
  property an equivocating leader with enough colluders violates;
* **confirmed-log prefix agreement** — every honest replica's globally
  confirmed log is a prefix of the longest honest log, fingerprinted by
  (sn, instance, round, rank, digest): dynamic global ordering must yield
  one total order no matter when each replica's confirmation bar moved;
* **liveness** — consensus instances that stopped partially committing
  well before the end of the run are flagged as *stalled* (censorship,
  equivocation minorities, and dead leaders all show up here).

Adversarial replicas (rank manipulators, equivocators, silencers, vote
delayers) are excluded from the honest set; crash-faulted replicas keep
their safety checks (a crashed log is a valid prefix) but are excluded
from the liveness scan.  The report rides
:class:`~repro.protocols.base.SystemResult` and its headline numbers are
folded into the metrics row (``safety_violations`` / ``stalled_instances``)
so sweeps and cached cells retain the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.consensus.base import CommitLog
    from repro.protocols.base import MultiBFTSystem
    from repro.protocols.result import RunSnapshot


@dataclass(frozen=True)
class AuditViolation:
    """One observed safety violation."""

    kind: str  # "conflicting-commit" | "prefix-divergence"
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}: {self.detail}"


@dataclass
class SafetyAuditReport:
    """Outcome of auditing one run's honest replicas."""

    honest_replicas: Tuple[int, ...]
    adversarial_replicas: Tuple[int, ...]
    violations: Tuple[AuditViolation, ...] = ()
    stalled_instances: Tuple[int, ...] = ()
    checked_partial_commits: int = 0
    checked_confirmed: int = 0
    stall_window: float = 0.0

    @property
    def safety_ok(self) -> bool:
        return not self.violations

    @property
    def live(self) -> bool:
        return not self.stalled_instances

    def summary(self) -> str:
        verdict = "SAFE" if self.safety_ok else f"UNSAFE ({len(self.violations)} violations)"
        liveness = (
            "all instances live"
            if self.live
            else f"stalled instances: {list(self.stalled_instances)}"
        )
        return (
            f"{verdict}; {liveness}; audited {len(self.honest_replicas)} honest "
            f"replicas ({self.checked_partial_commits} partial commits, "
            f"{self.checked_confirmed} confirmed blocks)"
        )


#: one confirmed block fingerprint: (sn, instance, round, rank, digest)
ConfirmedFingerprint = Tuple[int, int, int, int, str]


def audit_logs(
    partial_by_replica: Dict[int, Dict[int, "CommitLog"]],
    confirmed_by_replica: Dict[int, Sequence[ConfirmedFingerprint]],
    duration: float,
    stall_window: float,
    live_replicas: Sequence[int],
    liveness_instances: Sequence[int],
) -> SafetyAuditReport:
    """Audit plain per-replica logs (every replica passed in is honest).

    ``partial_by_replica`` maps replica -> instance -> partial-commit log
    (:class:`~repro.consensus.base.CommitLog`: ``(round, digest)`` pairs
    plus the time of the latest commit);
    ``confirmed_by_replica`` maps replica -> confirmed fingerprints in log
    order.  ``live_replicas`` restricts the liveness scan (crash-faulted
    replicas legitimately fall silent); ``liveness_instances`` restricts
    which instances are expected to keep committing (DQBFT's on-demand
    ordering instance legitimately idles).
    """
    honest = tuple(sorted(partial_by_replica))
    violations: List[AuditViolation] = []

    # ---------------------------------------------- partial-commit agreement
    checked_partial = 0
    commits_by_slot: Dict[Tuple[int, int], Dict[str, List[int]]] = {}
    for replica, by_instance in partial_by_replica.items():
        for instance, commits in by_instance.items():
            for round, digest in commits:
                checked_partial += 1
                commits_by_slot.setdefault((instance, round), {}).setdefault(
                    digest, []
                ).append(replica)
    for (instance, round), by_digest in sorted(commits_by_slot.items()):
        if len(by_digest) > 1:
            sides = "; ".join(
                f"digest {digest[:12]}… at replicas {sorted(replicas)}"
                for digest, replicas in sorted(by_digest.items())
            )
            violations.append(
                AuditViolation(
                    kind="conflicting-commit",
                    detail=f"instance {instance} round {round}: {sides}",
                )
            )

    # ------------------------------------------------ prefix agreement
    checked_confirmed = sum(len(log) for log in confirmed_by_replica.values())
    reference_replica, reference = max(
        confirmed_by_replica.items(),
        key=lambda item: len(item[1]),
        default=(None, ()),
    )
    for replica, log in sorted(confirmed_by_replica.items()):
        if replica == reference_replica:
            continue
        for position, (own, expected) in enumerate(zip(log, reference)):
            if own != expected:
                violations.append(
                    AuditViolation(
                        kind="prefix-divergence",
                        detail=(
                            f"replica {replica} diverges from replica "
                            f"{reference_replica} at sn={position}: "
                            f"{own} != {expected}"
                        ),
                    )
                )
                break

    # ------------------------------------------------------- liveness
    live = sorted(live_replicas)
    threshold = duration - stall_window
    stalled: List[int] = []
    instances: set = set()
    for by_instance in partial_by_replica.values():
        instances.update(by_instance.keys())
    instances &= set(liveness_instances)
    for instance in sorted(instances):
        for replica in live:
            commits = partial_by_replica.get(replica, {}).get(instance)
            last = None if commits is None else commits.last_at
            if last is None or last < threshold:
                stalled.append(instance)
                break

    return SafetyAuditReport(
        honest_replicas=honest,
        adversarial_replicas=(),
        violations=tuple(violations),
        stalled_instances=tuple(stalled),
        checked_partial_commits=checked_partial,
        checked_confirmed=checked_confirmed,
        stall_window=stall_window,
    )


def audit_snapshot(snapshot: "RunSnapshot", system: "MultiBFTSystem") -> SafetyAuditReport:
    """Audit the honest replicas of a finished run's snapshot.

    ``system`` is the facade that ran it; its ``faults`` is the effective
    fault view (see :func:`repro.protocols.result.assemble`, whose audit
    half this is).
    """
    config = system.config
    faults = system.faults
    adversarial = faults.adversarial_replicas()
    crashed = {spec.replica for spec in faults.crashes}
    honest = [r for r in sorted(snapshot.commit_logs) if r not in adversarial]
    # Slow enough for the slowest honest straggler's proposal cadence and
    # for a full view-change round trip; liveness below that pace is a
    # stall, not slowness.
    max_slowdown = max(
        [spec.slowdown for spec in faults.straggler_map().values()], default=1.0
    )
    report = audit_logs(
        {replica: snapshot.commit_logs[replica] for replica in honest},
        {replica: snapshot.confirmed_fps[replica] for replica in honest},
        duration=config.duration,
        stall_window=max(
            2.0 * config.view_change_timeout,
            3.0 * system.proposal_interval * max_slowdown,
        ),
        live_replicas=[r for r in honest if r not in crashed],
        # Only the paced worker instances are expected to keep committing;
        # extra instances (DQBFT's ordering instance) are demand-driven.
        liveness_instances=range(config.n),
    )
    report.adversarial_replicas = tuple(sorted(adversarial))
    return report


def audit_system(system) -> SafetyAuditReport:
    """Audit a finished :class:`~repro.protocols.base.MultiBFTSystem` run."""
    return audit_snapshot(system.snapshot(), system)
