"""Chained HotStuff consensus instance (vanilla).

Used by the HotStuff-instantiated baselines (ISS-HotStuff).  The instance
runs with a stable leader (one leader per instance per epoch, as in the
Multi-BFT deployment): the leader proposes node ``r`` justified by a QC of
2f+1 votes on node ``r-1``; a node commits when it is the tail of a direct
3-chain, i.e. node ``r-3`` commits while processing the proposal of node
``r`` (Appendix D commit rule).

There is no view change: the leader never rotates, and a crashed leader's
instance waits for the leader to recover, then resumes.  The paper's crash
experiment (Fig. 8) is Ladon-PBFT only, so the HotStuff stacks refuse a
``propose_timeout`` (see :data:`repro.protocols.base.HOTSTUFF_STACKS`).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import AbstractSet, Dict, Mapping, Optional, Tuple

from repro.core.block import Block
from repro.consensus.base import (
    CommitLog,
    ConsensusInstance,
    InstanceConfig,
    InstanceContext,
)
from repro.consensus.messages import HotStuffProposal, HotStuffVote
from repro.consensus.quorum import QuorumTracker
from repro.crypto.hashing import digest_hex
from repro.workload.transactions import Batch


@dataclass(slots=True)
class ChainNode:
    """A node of the instance's chain at one replica."""

    round: int
    digest: str
    txs: Tuple = ()
    tx_count: int = 0
    batch_submitted_at: float = 0.0
    rank: int = 0
    epoch: int = 0
    proposer: int = -1
    proposed_at: float = 0.0
    parent_round: int = 0
    committed: bool = False


class HotStuffInstance(ConsensusInstance):
    """One chained-HotStuff instance."""

    HANDLERS: Mapping[type, str] = MappingProxyType({
        HotStuffProposal: "_on_proposal",
        HotStuffVote: "_on_vote",
    })

    # Shared immutable default; an instance gets its own set on first use
    # (see the memory notes in :mod:`repro.consensus.pbft`).
    #: rounds committed ahead of the contiguous committed watermark
    _committed_above: AbstractSet[int] = frozenset()

    def __init__(self, config: InstanceConfig, context: InstanceContext) -> None:
        super().__init__(config, context)
        self.next_round = 1
        self.nodes: Dict[int, ChainNode] = {}
        self.vote_tracker = QuorumTracker(config.quorum)
        #: highest round with a formed QC (leader side), and the one QC
        #: watermark: the stable leader proposes round r only once it holds
        #: the QC on r-1 (``ready_to_propose``), so QCs form in round order
        #: and every round at or below it is QC'd
        self.high_qc_round = 0
        self.last_committed_round = 0
        #: full Block history of this instance's commits; only appended when
        #: ``retain_blocks`` (the bounded-memory system mode clears it off
        #: the observer replica) — the compact ``commit_log`` always grows
        self.delivered_blocks: list = []
        self.commit_log = CommitLog()
        self.retain_blocks = True
        # Committed rounds fold into a contiguous watermark; chain nodes
        # behind the watermark are pruned (their batches are released) and
        # vote state for QC'd rounds is dropped, keeping memory O(window).
        self._stable_round = 0

    # -------------------------------------------------------------- proposing
    def ready_to_propose(self) -> bool:
        """The leader proposes round r once it holds a QC on round r-1."""
        if not self.is_leader:
            return False
        return self.next_round == 1 or self.high_qc_round >= self.next_round - 1

    def propose(self, batch: Batch, now: float) -> Optional[HotStuffProposal]:
        if not self.ready_to_propose():
            return None
        round = self.next_round
        self.next_round += 1
        message = self._build_proposal(round, batch, now)
        self.context.record_crypto("sign")
        self.context.multicast(message, message.size_bytes)
        return message

    def _build_proposal(self, round: int, batch: Batch, now: float) -> HotStuffProposal:
        parent_round = round - 1
        parent = self.nodes.get(parent_round)
        return HotStuffProposal(
            sender=self.replica_id,
            instance=self.instance_id,
            view=self.view,
            round=round,
            digest=digest_hex(self.instance_id, self.view, round, batch.tx_count),
            tx_count=batch.tx_count,
            txs=batch.txs,
            rank=round,  # vanilla HotStuff: round stands in for the rank
            epoch=self.context.current_epoch(),
            parent_round=parent_round,
            parent_digest=parent.digest if parent else "",
            justify_votes=self.config.quorum if round > 1 else 0,
            proposed_at=now,
            batch_submitted_at=batch.submitted_at,
        )

    # --------------------------------------------------------------- proposal
    def _validate_proposal(self, sender: int, message: HotStuffProposal) -> bool:
        if message.view != self.view:
            return False
        if sender != self.config.leader_for_view(message.view):
            return False
        if message.round > 1 and message.justify_votes < self.config.quorum:
            return False
        existing = self.nodes.get(message.round)
        if existing is not None and existing.digest != message.digest:
            return False
        return True

    def _on_proposal(self, sender: int, message: HotStuffProposal) -> None:
        if not self._validate_proposal(sender, message):
            return
        if message.round in self.nodes or message.round < self._stable_round:
            return  # in flight already, or committed and pruned (duplicate)
        node = ChainNode(
            round=message.round,
            digest=message.digest,
            txs=message.txs,
            tx_count=message.tx_count,
            batch_submitted_at=message.batch_submitted_at,
            rank=message.rank,
            epoch=message.epoch,
            proposer=sender,
            proposed_at=message.proposed_at,
            parent_round=message.parent_round,
        )
        self.nodes[message.round] = node
        self._observe_proposal_rank(message)
        self._try_commit_three_chain(message.round)

        vote = self._build_vote(message)
        self.context.record_crypto("sign")
        leader = self.config.leader_for_view(self.view)
        if leader == self.replica_id:
            # Direct self-delivery bypasses on_message: account its entry
            # verification here.
            self.context.record_crypto("verify")
            self._on_vote(self.replica_id, vote)
        else:
            self.context.send(leader, vote, vote.size_bytes)

    def _observe_proposal_rank(self, message: HotStuffProposal) -> None:
        """Hook: Ladon-HotStuff adopts the leader's advertised rank_m."""

    def _build_vote(self, message: HotStuffProposal) -> HotStuffVote:
        return HotStuffVote(
            sender=self.replica_id,
            instance=self.instance_id,
            view=self.view,
            round=message.round,
            digest=message.digest,
            rank=message.rank,
        )

    def _try_commit_three_chain(self, new_round: int) -> None:
        """Commit node ``new_round - 3`` when the chain back from it is direct."""
        target_round = new_round - 3
        if target_round < 1:
            return
        chain = [self.nodes.get(target_round + offset) for offset in range(4)]
        if any(node is None for node in chain):
            return
        for child, parent in zip(chain[1:], chain[:-1]):
            if child.parent_round != parent.round:
                return
        target = chain[0]
        if target.committed:
            return
        target.committed = True
        self.last_committed_round = max(self.last_committed_round, target.round)
        now = self.context.now()
        block = Block(
            instance=self.instance_id,
            round=target.round,
            rank=target.rank,
            txs=target.txs,
            epoch=target.epoch,
            proposer=target.proposer,
            proposed_at=target.proposed_at,
            committed_at=now,
            # Consensus digest for the safety auditor (see PBFT commit path).
            payload_digest=target.digest,
            tx_count_hint=target.tx_count,
            batch_submitted_at=target.batch_submitted_at,
        )
        self.commit_log.record(target.round, target.digest, now)
        if self.retain_blocks:
            self.delivered_blocks.append(block)
        self.context.deliver(block)
        self._on_committed(target, block)
        self._gc_committed(target.round)

    def _gc_committed(self, round: int) -> None:
        """Prune chain nodes behind the contiguous committed watermark.

        The commit rule only ever looks at ``[target, target + 3]`` and the
        proposer only at ``round - 1``, both strictly above any committed
        round, so nodes *below* the watermark (and their batch references)
        are unreachable.  The node at the watermark itself is kept as the
        duplicate-delivery sentinel for in-flight retransmissions.
        """
        stable = self._stable_round
        above = self._committed_above
        nodes = self.nodes
        if round == stable + 1 and not above:
            stable = round  # commits arrive in round order: nothing to park
            nodes.pop(stable - 1, None)
        else:
            above = self._committed_above = above or set()
            above.add(round)
            while stable + 1 in above:
                stable += 1
                above.discard(stable)
                nodes.pop(stable - 1, None)
        self._stable_round = stable

    def _on_committed(self, node: ChainNode, block: Block) -> None:
        """Hook for Ladon-HotStuff rank bookkeeping."""

    # ------------------------------------------------------------------ votes
    def _on_vote(self, sender: int, message: HotStuffVote) -> None:
        if message.view != self.view:
            return
        self._observe_vote_rank(message)
        round = message.round
        if round <= self.high_qc_round:
            # QC already formed and its vote state released: stale vote.
            # A cleared key must never re-fire its quorum action.
            return
        key = (message.view, round, message.digest)
        if not self.vote_tracker.add_vote(key, sender):
            return
        self.context.record_crypto("aggregate")
        self.high_qc_round = round
        # The QC is formed; trailing votes for this round are dead weight.
        self.vote_tracker.clear(key)
        self._on_qc_formed(round)

    def _on_qc_formed(self, round: int) -> None:
        """Hook: called at the leader when a QC forms on ``round``."""

    def _observe_vote_rank(self, message: HotStuffVote) -> None:
        """Hook: Ladon-HotStuff updates curRank from vote rank reports."""
