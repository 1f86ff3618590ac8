"""Ladon-PBFT: PBFT with pipelined monotonic-rank collection (Algorithm 2).

Differences from vanilla PBFT:

* every proposal carries a monotonic ``rank`` computed from 2f+1 rank reports
  collected during the *previous* round's commit phase (pipelining, Sec. 4.1
  "Overhead analysis"), plus the winning report's certificate and the report
  set so backups can validate the rank calculation;
* when a round becomes prepared, a replica updates its global ``curRank``
  (shared across instances via the hosting replica) and sends a rank message
  to the instance's leader for the next round;
* a leader that proposes the epoch's ``maxRank`` stops proposing until the
  epoch advances;
* a Byzantine straggling leader may apply the lowest-2f+1 manipulation of
  Sec. 4.4 (Appendix B, case 3).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Mapping, Tuple

from repro.consensus.base import EpochStop, InstanceConfig, InstanceContext
from repro.consensus.messages import PrePrepare, RankMessage
from repro.consensus.pbft import PBFTInstance, RoundEntry
from repro.core.block import Block
from repro.core.rank import RankCertificate, RankReport, choose_rank
from repro.crypto.hashing import digest_hex
from repro.workload.transactions import Batch


class LadonPBFTInstance(EpochStop, PBFTInstance):
    """Algorithm 2 of the paper."""

    HANDLERS: Mapping[type, str] = MappingProxyType(
        {**PBFTInstance.HANDLERS, RankMessage: "_on_rank_message"}
    )

    def __init__(
        self,
        config: InstanceConfig,
        context: InstanceContext,
        byzantine_rank_manipulation: bool = False,
    ) -> None:
        super().__init__(config, context)
        self.byzantine_rank_manipulation = byzantine_rank_manipulation
        # Rank reports received as the leader, keyed by the round in which the
        # sender produced them (reports from round n-1 gate the proposal of n).
        # Pruned as the proposal cursor advances: reports for rounds the
        # leader has already proposed past can never gate anything again.
        self.rank_reports: Dict[int, Dict[int, RankReport]] = {}

    # -------------------------------------------------------------- proposing
    def ready_to_propose(self) -> bool:
        if not super().ready_to_propose():
            return False
        if self._stopped_for_epoch():
            return False
        if self.next_round == 1:
            return True
        reports = self.rank_reports.get(self.next_round - 1, {})
        if not reports and self.view > 0 and self.next_round == self.view_resume_round:
            # First proposal after a view change: the new leader has no stored
            # reports for a round it never led; it bootstraps from its own
            # certified curRank (as in round 1).
            return True
        return len(reports) >= self.config.quorum

    def propose(self, batch: Batch, now: float):
        message = super().propose(batch, now)
        reports = self.rank_reports
        if message is not None and reports:
            # Reports that gated this (or any earlier) round are dead.
            for round in [r for r in reports if r < message.round]:
                del reports[round]
            if not reports:
                reports.clear()  # release the emptied table
        return message

    def _build_pre_prepare(self, round: int, batch: Batch, now: float) -> PrePrepare:
        epoch = self.context.current_epoch()
        max_rank = self.context.max_rank()
        bootstrap = round == 1 or (
            self.view > 0
            and round == self.view_resume_round
            and not self.rank_reports.get(round - 1)
        )
        if bootstrap:
            # Round 1 (or the first round a new leader proposes after a view
            # change) needs no collected reports: rankSet is the leader's own
            # current rank (Algorithm 2, note after line 11).
            own = RankReport(
                replica=self.replica_id,
                rank=self.context.current_rank(),
                view=self.view,
                round=0,
                instance=self.instance_id,
            )
            reports: Tuple[RankReport, ...] = (own,)
            rank = min(own.rank + 1, max_rank)
            winning = own
        else:
            collected = dict(self.rank_reports.get(round - 1, {}))
            # The leader contributes its own rank report.  An honest leader
            # reports its freshest curRank; a manipulating leader understates
            # its own rank (it can always certify the epoch minimum) so that
            # the lowest-2f+1 selection below lands as low as possible.
            own_rank = (
                self.context.min_rank()
                if self.byzantine_rank_manipulation
                else self.context.current_rank()
            )
            collected[self.replica_id] = RankReport(
                replica=self.replica_id,
                rank=own_rank,
                view=self.view,
                round=round - 1,
                instance=self.instance_id,
            )
            reports = tuple(collected.values())
            rank, winning = choose_rank(
                reports,
                quorum=self.config.quorum,
                max_rank=max_rank,
                byzantine_minimize=self.byzantine_rank_manipulation,
            )
            if self.byzantine_rank_manipulation:
                # The manipulating leader only reveals the lowest 2f+1 reports
                # so the (lower) chosen rank still validates.
                reports = tuple(sorted(reports, key=lambda r: r.rank)[: self.config.quorum])
        rank = self._cap_rank(rank, max_rank, epoch)
        self.context.record_crypto("aggregate")
        rank_reports, proof_bytes = self._rank_proof(reports)
        return PrePrepare(
            sender=self.replica_id,
            instance=self.instance_id,
            view=self.view,
            round=round,
            digest=digest_hex(self.instance_id, self.view, round, batch.tx_count),
            tx_count=batch.tx_count,
            txs=batch.txs,
            rank=rank,
            epoch=epoch,
            rank_certificate=winning.certificate,
            rank_reports=rank_reports,
            aggregated_rank_proof_bytes=proof_bytes,
            proposed_at=now,
            batch_submitted_at=batch.submitted_at,
        )

    def _rank_proof(self, reports: Tuple[RankReport, ...]) -> Tuple[Tuple[RankReport, ...], int]:
        """What a pre-prepare carries to prove its rank: the report set itself
        (and no aggregate)."""
        return reports, 0

    # --------------------------------------------------------- rank validation
    def _validate_pre_prepare(self, sender: int, message: PrePrepare) -> bool:
        if not super()._validate_pre_prepare(sender, message):
            return False
        return self._validate_rank(message)

    def _validate_rank(self, message: PrePrepare) -> bool:
        """Backup-side checks of the leader's rank calculation (Sec. 5.2.2)."""
        if message.reproposal:
            # A new-view re-proposal carries the rank certified by the old
            # view's prepare quorum; verifying that certificate replaces the
            # fresh rank-report calculation.
            self.context.record_crypto("verify")
            return True
        max_rank = self.context.max_rank()
        reports = message.rank_reports
        bootstrap = message.round == 1 or (
            message.view > 0 and message.round == self.view_resume_round
        )
        if bootstrap:
            if len(reports) < 1:
                return False
        else:
            if len(reports) < self.config.quorum:
                return False
        if not reports:
            return False
        self.context.record_crypto("verify", count=len(reports))
        distinct = {report.replica for report in reports}
        if len(distinct) != len(reports):
            return False
        rank_m = max(report.rank for report in reports)
        expected = min(rank_m + 1, max_rank)
        return message.rank == expected

    # ------------------------------------------------------------- rank flow
    def _on_prepared(self, entry: RoundEntry) -> None:
        """Commit-phase rank bookkeeping (Algorithm 2, lines 23-28)."""
        self.context.observe_rank(entry.rank, None, self.config.quorum)
        self.context.record_crypto("aggregate")
        certificate = self.context.quorum_certificate(self.config.quorum)
        rank_msg = self._rank_message(entry, certificate)
        self.context.record_crypto("sign")
        leader = self.config.leader_for_view(self.view)
        if leader == self.replica_id:
            self._store_rank_report(self.replica_id, rank_msg)
        else:
            self.context.send(leader, rank_msg)

    def _rank_message(self, entry: RoundEntry, certificate: RankCertificate) -> RankMessage:
        """The rank message for ``entry``'s round: the replica's certified curRank."""
        return RankMessage(
            sender=self.replica_id,
            instance=self.instance_id,
            view=self.view,
            round=entry.round,
            rank=certificate.rank,
            certificate=certificate,
        )

    def _on_rank_message(self, sender: int, message: RankMessage) -> None:
        # (entry verification accounted at the dispatch site)
        # Any replica updates its curRank from a higher certified rank
        # (Algorithm 2, lines 37-41); only the leader stores the report.
        self.context.observe_rank(message.rank, message.certificate)
        if self.is_leader:
            self._store_rank_report(sender, message)

    def _store_rank_report(self, sender: int, message: RankMessage) -> None:
        if message.round < self.next_round - 1:
            # Reports for rounds the proposal cursor has moved past can never
            # gate a proposal again; storing them would regrow pruned state.
            return
        per_round = self.rank_reports.setdefault(message.round, {})
        report = message.to_report()
        existing = per_round.get(sender)
        if existing is None or report.rank > existing.rank:
            per_round[sender] = report

    # ---------------------------------------------------------------- commits
    def _on_committed(self, entry: RoundEntry, block: Block) -> None:
        # A committed block's rank is certified by 2f+1 commit messages.
        self.context.observe_rank(entry.rank, None, self.config.quorum)
