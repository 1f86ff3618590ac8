"""Ladon-opt: the aggregate-signature rank refinement (paper Sec. 5.3).

Functionally the protocol commits the same blocks with the same ranks as
Ladon-PBFT; what changes is *how the rank information travels*:

* a backup encodes the difference between its highest known rank and the
  current round's rank in the index of the private key it signs the rank
  message with (one of :data:`KEY_COUNT` keys per replica; a larger
  difference is clamped to the last key), so every backup signs the *same*
  message and the leader can aggregate the 2f+1 signatures into one;
* the pre-prepare then carries a single aggregate (O(1)) instead of 2f+1
  individual rank reports (O(n)), reducing the pre-prepare phase's message
  complexity from O(n^2) to O(n) and the backups' verification from O(n)
  signatures to O(1).
"""

from __future__ import annotations

from repro.consensus.ladon_pbft import LadonPBFTInstance
from repro.consensus.messages import PrePrepare, RankMessage
from repro.consensus.pbft import RoundEntry


#: private keys per replica for the rank-difference encoding: key ``k`` says
#: "my rank is ``k`` above the round's"
KEY_COUNT = 16


#: modelled wire size of the aggregated rank proof: one 96-byte aggregate
#: point plus a one-byte key index per signer.
def _aggregate_proof_bytes(quorum: int) -> int:
    return 96 + quorum


class LadonOptInstance(LadonPBFTInstance):
    """Ladon-PBFT with the aggregate-signature rank message optimisation."""

    # -------------------------------------------------------------- proposing
    def _build_pre_prepare(self, round: int, batch, now: float) -> PrePrepare:
        base = super()._build_pre_prepare(round, batch, now)
        # Same rank and certificate, but the report set is replaced by a single
        # aggregate signature whose size is O(1) in n.
        return PrePrepare(
            sender=base.sender,
            instance=base.instance,
            view=base.view,
            round=base.round,
            digest=base.digest,
            tx_count=base.tx_count,
            txs=base.txs,
            rank=base.rank,
            epoch=base.epoch,
            rank_certificate=base.rank_certificate,
            rank_reports=(),
            aggregated_rank_proof_bytes=_aggregate_proof_bytes(self.config.quorum),
            proposed_at=base.proposed_at,
            batch_submitted_at=base.batch_submitted_at,
        )

    # --------------------------------------------------------- rank validation
    def _validate_rank(self, message: PrePrepare) -> bool:
        """Verify the single aggregate instead of 2f+1 individual reports."""
        if message.reproposal:
            # New-view re-proposal: the old view's prepared certificate
            # stands in for the aggregate rank proof.
            self.context.record_crypto("verify")
            return True
        if message.aggregated_rank_proof_bytes <= 0 and message.round != 1:
            return False
        self.context.record_crypto("verify_aggregate")
        max_rank = self.context.max_rank()
        if message.rank > max_rank:
            return False
        return message.rank >= 0

    # ------------------------------------------------------------- rank flow
    def _on_prepared(self, entry: RoundEntry) -> None:
        """Send the rank message signed with the key encoding the difference."""
        self.context.observe_rank(entry.rank, None, self.config.quorum)
        self.context.record_crypto("aggregate")
        certificate = self.context.quorum_certificate(self.config.quorum)
        current = certificate.rank
        difference = max(0, current - entry.rank)
        key_index = min(difference, KEY_COUNT - 1)
        rank_msg = RankMessage(
            sender=self.replica_id,
            instance=self.instance_id,
            view=self.view,
            round=entry.round,
            rank=entry.rank,
            key_index=key_index,
            certificate=certificate,
        )
        self.context.record_crypto("sign")
        leader = self.config.leader_for_view(self.view)
        if leader == self.replica_id:
            self._store_rank_report(self.replica_id, rank_msg)
        else:
            self.context.send(leader, rank_msg, rank_msg.size_bytes)

    def _store_rank_report(self, sender: int, message: RankMessage) -> None:
        """Decode the reported rank from the key index before storing it."""
        if message.key_index is not None:
            decoded_rank = message.rank + message.key_index
            message = RankMessage(
                sender=message.sender,
                instance=message.instance,
                view=message.view,
                round=message.round,
                rank=decoded_rank,
                certificate=message.certificate,
                key_index=message.key_index,
            )
        super()._store_rank_report(sender, message)
