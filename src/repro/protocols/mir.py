"""Mir-BFT baseline.

Mir (Stathakopoulou et al., JSys 2022) is the predecessor of ISS: the same
pre-determined interleaving of instance logs into a global log, but with a
heavier normal path — every replica re-verifies client request signatures in
each batch and epochs end eagerly when any leader is suspected.  In the
paper's evaluation Mir tracks ISS/RCC closely but with somewhat lower
throughput and higher latency even without stragglers (Fig. 5).

We model the protocol difference that matters at the measured scale: the
per-batch request re-verification, charged as additional verify operations
and a small per-proposal processing delay at every replica.
"""

from __future__ import annotations

from repro.consensus.messages import PrePrepare
from repro.consensus.pbft import PBFTInstance


#: extra CPU charged per transaction for client-signature re-verification,
#: expressed as a fraction of a normal signature verification
REQUEST_VERIFICATION_FRACTION = 0.02


class MirPBFTInstance(PBFTInstance):
    """PBFT instance with Mir's per-batch request re-verification cost."""

    #: the request re-verification is accounted *before* the entry verify,
    #: so this handler opts out of the dispatch-site accounting and records
    #: both itself, preserving the historical accumulation order bit-exactly
    SELF_ACCOUNTING = frozenset({PrePrepare})

    def _on_pre_prepare(self, sender: int, message: PrePrepare) -> None:
        if message.tx_count:
            extra_verifies = max(1, int(message.tx_count * REQUEST_VERIFICATION_FRACTION))
            self.context.record_crypto("verify", count=extra_verifies)
        self.context.record_crypto("verify")  # the entry verification
        super()._on_pre_prepare(sender, message)
