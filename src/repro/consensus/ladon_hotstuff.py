"""Ladon-HotStuff: chained HotStuff with monotonic ranks (Algorithm 3).

Rank flow differs from Ladon-PBFT because HotStuff's vote traffic is
leader-centric: backups piggyback their highest known rank (and its QC) on
their votes (lines 25-26), the leader keeps the maximum (lines 38-42), and
each new proposal advertises the leader's ``curRank`` so backups can catch up
(lines 15-18).  The proposed node's rank is ``min(curRank + 1, maxRank(e))``
(line 6) and the leader stops proposing once it proposes ``maxRank(e)``.

Adopting a piggybacked ``rank_m`` is shared with vanilla HotStuff (see
:mod:`repro.consensus.hotstuff`); this class adds what carries and
certifies ranks.
"""

from __future__ import annotations

from repro.consensus.base import EpochStop, InstanceConfig, InstanceContext
from repro.consensus.hotstuff import HotStuffInstance
from repro.consensus.messages import HotStuffProposal, HotStuffVote
from repro.crypto.hashing import digest_hex


class LadonHotStuffInstance(EpochStop, HotStuffInstance):
    """Algorithm 3 of the paper."""

    def __init__(
        self,
        config: InstanceConfig,
        context: InstanceContext,
        byzantine_rank_manipulation: bool = False,
    ) -> None:
        super().__init__(config, context)
        self.byzantine_rank_manipulation = byzantine_rank_manipulation
        if byzantine_rank_manipulation:
            # Ranks reported by voters for the next proposal (leader side).
            self._vote_ranks = {}

    # -------------------------------------------------------------- proposing
    def ready_to_propose(self) -> bool:
        if self._stopped_for_epoch():
            return False
        return super().ready_to_propose()

    def _choose_rank(self) -> int:
        """Pick the rank for a new node from the leader's curRank.

        A Byzantine leader manipulating ranks ignores the highest vote-borne
        reports and falls back to the (lower) rank certified by its own chain,
        the HotStuff analogue of the lowest-2f+1 selection.
        """
        max_rank = self.context.max_rank()
        if self.byzantine_rank_manipulation and self._vote_ranks:
            ranks = sorted(self._vote_ranks.values())
            usable = ranks[: self.config.quorum] if len(ranks) > self.config.quorum else ranks
            base = max(usable) if usable else self.context.current_rank()
        else:
            base = self.context.current_rank()
        return min(base + 1, max_rank)

    def _build_proposal(self, round: int, batch, now: float) -> HotStuffProposal:
        epoch = self.context.current_epoch()
        rank = self._cap_rank(self._choose_rank(), self.context.max_rank(), epoch)
        parent_round = round - 1
        parent = self.nodes.get(parent_round)
        certificate = self.context.quorum_certificate(self.config.quorum)
        return HotStuffProposal(
            sender=self.replica_id,
            instance=self.instance_id,
            view=self.view,
            round=round,
            digest=digest_hex(self.instance_id, self.view, round, batch.tx_count),
            tx_count=batch.tx_count,
            txs=batch.txs,
            rank=rank,
            epoch=epoch,
            parent_round=parent_round,
            parent_digest=parent.digest if parent else "",
            justify_votes=self.config.quorum if round > 1 else 0,
            rank_m=certificate.rank,
            rank_certificate=certificate,
            proposed_at=now,
            batch_submitted_at=batch.submitted_at,
        )

    # ----------------------------------------------------------- rank updates
    def _build_vote(self, message: HotStuffProposal) -> HotStuffVote:
        """A vote reports the voter's curRank and its certificate (lines 25-26)."""
        config = self.config
        certificate = self.context.quorum_certificate(config.quorum)
        # HotStuffVote(sender, instance, view, round, digest, rank, rank_m,
        # rank_certificate), positional: keywords cost a dict per call
        return HotStuffVote(
            config.replica_id, config.instance_id, self.view, message.round,
            message.digest, message.rank, certificate.rank, certificate,
        )

    def _on_qc_formed(self, round: int) -> None:
        """A QC on a node certifies that node's rank (MR-Monotonicity within
        the instance: the next proposal must carry a strictly larger rank)."""
        node = self.nodes.get(round)
        if node is not None:
            self.context.observe_rank(node.rank, None, self.config.quorum)

    def _on_committed(self, node: HotStuffProposal) -> None:
        """A committed node's rank is certified by its 3-chain of QCs."""
        self.context.observe_rank(node.rank, None, self.config.quorum)
