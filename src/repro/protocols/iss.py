"""ISS: pre-determined global ordering over PBFT or HotStuff instances.

ISS (Stathakopoulou et al., EuroSys 2022) assigns every block a global index
determined by its (instance, round) before the block exists; replicas execute
blocks strictly in index order, so a hole left by a slow instance blocks all
later indices (the behaviour Sec. 2.1 analyses).
"""

from __future__ import annotations

from repro.core.ordering import GlobalOrderer
from repro.core.predetermined import PredeterminedOrderer
from repro.protocols.base import MultiBFTReplica


class ISSReplica(MultiBFTReplica):
    """A replica running ISS: pre-determined ordering over the registry
    row's instance class (PBFT or HotStuff).

    Mir interleaves its instance logs the same way and is this class over
    :class:`~repro.protocols.mir.MirPBFTInstance`; RCC is this class over
    :class:`~repro.consensus.pbft.PBFTInstance` (see the registry).
    """

    uses_epochs = False

    def build_orderer(self) -> GlobalOrderer:
        return PredeterminedOrderer(
            num_instances=self.config.n, retain_blocks=self.retain_history
        )
