"""Chained HotStuff consensus instance (vanilla).

Used by the HotStuff-instantiated baselines (ISS-HotStuff).  The instance
runs with a stable leader (one leader per instance per epoch, as in the
Multi-BFT deployment): the leader proposes node ``r`` justified by a QC of
2f+1 votes on node ``r-1``; a node commits when it is the tail of a direct
3-chain, i.e. node ``r-3`` commits while processing the proposal of node
``r`` (Appendix D commit rule).

A chain node *is* its proposal: ``nodes`` maps a round to the immutable
:class:`~repro.consensus.messages.HotStuffProposal` every replica received,
so accepting one copies nothing.  A round has committed iff it is at or
below the contiguous committed watermark or among the rounds committed
above it.  Proposals and votes may piggyback the sender's certified rank
(``rank_m``, Ladon-HotStuff), which a receiver adopts; vanilla leaves it 0.

There is no view change: the leader never rotates, and a crashed leader's
instance waits for the leader to recover, then resumes.  The paper's crash
experiment (Fig. 8) is Ladon-PBFT only, so the HotStuff stacks refuse a
``propose_timeout`` (see :data:`repro.protocols.base.HOTSTUFF_STACKS`).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import AbstractSet, Dict, Mapping, Optional

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
    #: voter -> the rank its latest vote reported; kept only by a leader that
    #: manipulates ranks (Ladon-HotStuff), the one reader
    _vote_ranks: Optional[Dict[int, int]] = None

    def __init__(self, config: InstanceConfig, context: InstanceContext) -> None:
        super().__init__(config, context)
        self.next_round = 1
        #: round -> the proposal of that round (the chain node)
        self.nodes: Dict[int, HotStuffProposal] = {}
        self.vote_tracker = QuorumTracker(config.quorum)
        #: highest round with a formed QC (leader side), and the one QC
        #: watermark: the stable leader proposes round r only once it holds
        #: the QC on r-1 (``ready_to_propose``), so QCs form in round order
        #: and every round at or below it is QC'd
        self.high_qc_round = 0
        self.last_committed_round = 0
        self.commit_log = CommitLog()
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
        self.context.multicast(message)
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
    def _on_proposal(self, sender: int, message: HotStuffProposal) -> None:
        config = self.config
        view = self.view
        round = message.round
        nodes = self.nodes
        # Validation, inline: the view, the leader (``leader_for_view``), the
        # QC justifying every round after the first.  A round already held
        # (duplicate or conflicting digest) or committed and pruned is dropped.
        leader = (config.instance_id + view) % config.n
        if (
            message.view != view
            or sender != leader
            or (round > 1 and message.justify_votes < config.quorum)
            or round in nodes
            or round < self._stable_round
        ):
            return
        nodes[round] = message
        context = self.context
        if message.rank_m > 0:
            # Ladon-HotStuff: backups adopt the leader's rank_m (Alg. 3, l. 15-18).
            context.observe_rank(message.rank_m, message.rank_certificate)
        self._try_commit_three_chain(round, leader)

        vote = self._build_vote(message)
        context.record_crypto("sign")
        if leader == config.replica_id:
            # Direct self-delivery bypasses on_message: account its entry
            # verification here.
            context.record_crypto("verify")
            self._on_vote(leader, vote)
        else:
            context.send(leader, vote)

    def _build_vote(self, message: HotStuffProposal) -> HotStuffVote:
        config = self.config
        # HotStuffVote(sender, instance, view, round, digest, rank, rank_m,
        # rank_certificate), positional: keywords cost a dict per call
        return HotStuffVote(
            config.replica_id, config.instance_id, self.view, message.round,
            message.digest, message.rank,
        )

    def _try_commit_three_chain(self, new_round: int, proposer: int) -> None:
        """Commit node ``new_round - 3`` when the chain back from it is direct;
        ``proposer`` is the leader, who proposed the whole chain."""
        target_round = new_round - 3
        if target_round <= self._stable_round or target_round in self._committed_above:
            return  # no 3-chain yet (the watermark starts at 0), or committed
        nodes = self.nodes
        target = nodes.get(target_round)
        first = nodes.get(target_round + 1)
        second = nodes.get(target_round + 2)
        if (
            target is None or first is None or second is None
            or first.parent_round != target_round
            or second.parent_round != target_round + 1
            or nodes[new_round].parent_round != target_round + 2
        ):
            return
        if target_round > self.last_committed_round:
            self.last_committed_round = target_round
        context = self.context
        now = context.now()
        digest = target.digest
        # Block(instance, round, rank, txs, epoch, proposer, proposed_at, committed_at,
        # payload_digest = the consensus digest, tx_count_hint, batch_submitted_at)
        block = Block(
            self.config.instance_id, target_round, target.rank, target.txs, target.epoch,
            proposer, target.proposed_at, now, digest, target.tx_count,
            target.batch_submitted_at,
        )
        self.commit_log.record(target_round, digest, now)
        context.deliver(block)
        self._on_committed(target)
        self._gc_committed(target_round)

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

    def _on_committed(self, node: HotStuffProposal) -> None:
        """Hook for Ladon-HotStuff rank bookkeeping."""

    # ------------------------------------------------------------------ votes
    def _on_vote(self, sender: int, message: HotStuffVote) -> None:
        if message.view != self.view:
            return
        rank_m = message.rank_m
        if rank_m > 0:
            # Ladon-HotStuff: the leader keeps the highest reported rank
            # (Alg. 3, l. 38-42).
            self.context.observe_rank(rank_m, message.rank_certificate)
        vote_ranks = self._vote_ranks
        if vote_ranks is not None:
            vote_ranks[message.sender] = rank_m
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
