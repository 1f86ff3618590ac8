"""Ladon systems: Ladon-PBFT, Ladon-opt and Ladon-HotStuff.

All three use the dynamic global orderer (Algorithm 1) and the epoch
pacemaker; they differ only in the consensus-instance state machine.  A
replica configured as a *Byzantine* straggler additionally applies the
lowest-2f+1 rank manipulation in the instance it leads (Sec. 4.4).
"""

from __future__ import annotations

from typing import Any

from repro.core.ordering import DynamicOrderer, GlobalOrderer
from repro.protocols.base import MultiBFTReplica, ReplicaInstanceContext


class LadonReplica(MultiBFTReplica):
    """A replica running Ladon (dynamic ordering + epochs)."""

    uses_epochs = True

    def build_orderer(self) -> GlobalOrderer:
        return DynamicOrderer(
            num_instances=self.config.n, retain_blocks=self.retain_history
        )

    def build_instance(self, instance_id: int) -> Any:
        inst_config = self.instance_config(instance_id)
        # Only the instance this replica leads can be driven Byzantine; the
        # manipulation is a leader-side strategy.
        byzantine = (
            self.faults.is_byzantine(self.node_id)
            and inst_config.leader_for_view(0) == self.node_id
        )
        return self.instance_cls(
            inst_config,
            ReplicaInstanceContext(self, instance_id),
            byzantine_rank_manipulation=byzantine,
        )
