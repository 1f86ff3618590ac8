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

from typing import Tuple

from repro.consensus.ladon_pbft import LadonPBFTInstance
from repro.consensus.messages import PrePrepare, RankMessage
from repro.consensus.pbft import RoundEntry
from repro.core.rank import RankCertificate, RankReport


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
    def _rank_proof(self, reports: Tuple[RankReport, ...]) -> Tuple[Tuple[RankReport, ...], int]:
        """Same rank and certificate, but the report set is replaced by a
        single aggregate signature whose size is O(1) in n."""
        return (), _aggregate_proof_bytes(self.config.quorum)

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
    def _rank_message(self, entry: RoundEntry, certificate: RankCertificate) -> RankMessage:
        """Report the round's rank, signed with the key encoding the difference
        to the certified curRank (:meth:`RankMessage.to_report` decodes it)."""
        difference = max(0, certificate.rank - entry.rank)
        return RankMessage(
            sender=self.replica_id,
            instance=self.instance_id,
            view=self.view,
            round=entry.round,
            rank=entry.rank,
            key_index=min(difference, KEY_COUNT - 1),
            certificate=certificate,
        )
