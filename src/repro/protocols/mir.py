"""Mir-BFT baseline.

Mir (Stathakopoulou et al., JSys 2022) is the predecessor of ISS: the same
pre-determined interleaving of instance logs into a global log, with a
heavier normal path.  Of that path only the per-batch client request
re-verification is modelled: every replica charges
``max(1, int(tx_count * REQUEST_VERIFICATION_FRACTION))`` extra verify
operations per pre-prepare.  Everything else is ISS-PBFT.
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
