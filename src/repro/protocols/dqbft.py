"""DQBFT baseline: dynamic ordering through a centralised ordering instance.

DQBFT (Arun & Ravindran, PVLDB 2022) partially decentralises consensus: the
``m`` worker instances only partially commit blocks, and one additional
*ordering instance* (a regular PBFT instance whose leader is the sequencer)
decides the global order by committing batches of block references.  This
removes ISS's rigid interleaving — so it tolerates stragglers in worker
instances — but every block pays the ordering instance's extra consensus
latency, the sequencer is a single bottleneck at scale, and nothing ties the
decided order to block generation time (no causality guarantee).
"""

from __future__ import annotations

from typing import List

from repro.consensus.pbft import PBFTInstance
from repro.core.block import Block, BlockId
from repro.core.dqbft_ordering import DQBFTOrderer
from repro.core.ordering import Confirmation, GlobalOrderer
from repro.protocols.base import MultiBFTReplica, ReplicaInstanceContext
from repro.workload.transactions import Batch


class DQBFTReplica(MultiBFTReplica):
    """A replica running DQBFT (m worker instances + 1 ordering instance)."""

    uses_epochs = False

    def __init__(self, node_id: int, system, *args, **kwargs) -> None:
        super().__init__(node_id, system, *args, **kwargs)
        self.block_rate = system.block_rate
        self.ordering_instance_id = self.config.n
        ordering_instance = self._build_ordering_instance()
        ordering_instance.retain_blocks = self.retain_history
        self.instances[self.ordering_instance_id] = ordering_instance
        self._build_route()  # include the ordering instance in the fast path
        # Blocks this replica (as the sequencer) still has to sequence.
        self._pending_decisions: List[BlockId] = []

    # ------------------------------------------------------------- factories
    def build_orderer(self) -> GlobalOrderer:
        return DQBFTOrderer(
            num_instances=self.config.n, retain_blocks=self.retain_history
        )

    def _build_ordering_instance(self) -> PBFTInstance:
        return PBFTInstance(
            self.instance_config(self.ordering_instance_id),
            ReplicaInstanceContext(self, self.ordering_instance_id),
        )

    @property
    def sequencer_id(self) -> int:
        """The replica leading the ordering instance in its current view."""
        return self.instances[self.ordering_instance_id].leader

    # ---------------------------------------------------------------- pacing
    def paced_instance_ids(self) -> List[int]:
        return [i for i in self.instances.keys() if i != self.ordering_instance_id]

    def ordering_interval(self) -> float:
        """How often the sequencer cuts an ordering batch.

        Chosen so that a handful of blocks are sequenced per decision at the
        configured total block rate, keeping the added ordering latency small
        relative to consensus latency.
        """
        return max(0.05, 4.0 / self.block_rate)

    def start(self) -> None:
        super().start()
        if self.sequencer_id == self.node_id:
            self.set_timer("dqbft-ordering", self.ordering_interval(), self._ordering_tick)

    def _ordering_tick(self) -> None:
        if self.crashed:
            return
        instance = self.instances[self.ordering_instance_id]
        if instance.leader != self.node_id:
            return
        if self._pending_decisions and instance.ready_to_propose():
            batch = Batch(txs=tuple(self._pending_decisions))
            self._pending_decisions = []
            instance.propose(batch, self.now())
        self.set_timer("dqbft-ordering", self.ordering_interval(), self._ordering_tick)

    def _on_view_installed(self, instance_id: int, view: int) -> None:
        # The ordering instance is paced by ``_ordering_tick``, not by the
        # proposal loop a logged view change re-arms.
        if instance_id != self.ordering_instance_id:
            super()._on_view_installed(instance_id, view)

    # ------------------------------------------------------------ commit path
    def on_partial_commit(self, block: Block) -> None:
        if block.instance == self.ordering_instance_id:
            self._on_ordering_block(block)
            return
        if self.sequencer_id == self.node_id:
            self._pending_decisions.append(block.block_id)
        newly = self.orderer.add_partially_committed(block, self.now())
        if newly:
            self._confirm(newly)

    def _on_ordering_block(self, block: Block) -> None:
        """An ordering-instance block commits: apply its sequencing decisions."""
        assert isinstance(self.orderer, DQBFTOrderer)
        newly: List[Confirmation] = []
        for block_id in block.txs:
            newly.extend(self.orderer.add_sequencing_decision(block_id, self.now()))
        if newly:
            self._confirm(newly)
