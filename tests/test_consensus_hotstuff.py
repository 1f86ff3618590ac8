"""Unit tests for chained HotStuff and Ladon-HotStuff (Algorithm 3)."""

import pytest

from repro.consensus.base import CollectingContext, InstanceConfig
from repro.consensus.hotstuff import HotStuffInstance
from repro.consensus.ladon_hotstuff import LadonHotStuffInstance
from repro.consensus.messages import HotStuffProposal, HotStuffVote
from repro.workload.transactions import Batch


N = 4
QUORUM = 3


def make_instance(cls=HotStuffInstance, replica_id=0, instance_id=0, rank=0, **kwargs):
    config = InstanceConfig(instance_id=instance_id, replica_id=replica_id, n=N)
    context = CollectingContext(rank=rank)
    return cls(config, context, **kwargs), context


def drive_chain(leader, leader_ctx, backups, rounds):
    """Drive ``rounds`` chained proposals end to end (leader + backups)."""
    all_nodes = [(leader, leader_ctx)] + backups
    for round in range(1, rounds + 1):
        proposal = leader.propose(Batch.synthetic(2, 0.0), now=float(round))
        assert proposal is not None, f"leader not ready at round {round}"
        for node, _ in all_nodes:
            node.on_message(proposal.sender, proposal)
        # Gather votes sent to the leader (and the leader's own local vote).
        votes = []
        for node, ctx in all_nodes:
            votes.extend(m for _, m, _ in ctx.sent if isinstance(m, HotStuffVote) and m.round == round)
        for vote in votes:
            leader.on_message(vote.sender, vote)


class TestChainedHotStuff:
    def test_leader_waits_for_qc_before_next_proposal(self):
        leader, ctx = make_instance()
        leader.propose(Batch.synthetic(1, 0.0), now=0.0)
        assert not leader.ready_to_propose()

    def test_three_chain_commit_rule(self):
        leader, leader_ctx = make_instance(replica_id=0)
        backups = [make_instance(replica_id=r) for r in range(1, N)]
        drive_chain(leader, leader_ctx, backups, rounds=3)
        # After 3 proposals nothing is committed yet (round 1 needs round 4).
        assert leader_ctx.delivered == []
        drive_chain(leader, leader_ctx, backups, rounds=0)  # no-op
        # The 4th proposal commits round 1 at every replica that saw it.
        proposal4 = leader.propose(Batch.synthetic(2, 0.0), now=10.0)
        for node, ctx in [(leader, leader_ctx)] + backups:
            node.on_message(proposal4.sender, proposal4)
            assert len(ctx.delivered) == 1
            assert ctx.delivered[0].round == 1

    def test_blocks_commit_in_round_order(self):
        leader, leader_ctx = make_instance(replica_id=0)
        backups = [make_instance(replica_id=r) for r in range(1, N)]
        drive_chain(leader, leader_ctx, backups, rounds=6)
        rounds = [b.round for b in leader_ctx.delivered]
        assert rounds == sorted(rounds)
        assert rounds == [1, 2, 3]

    def test_proposal_from_non_leader_rejected(self):
        backup, ctx = make_instance(replica_id=1)
        bogus = HotStuffProposal(sender=2, instance=0, view=0, round=1, digest="d", tx_count=1)
        backup.on_message(2, bogus)
        assert not any(isinstance(m, HotStuffVote) for _, m, _ in ctx.sent)

    def test_proposal_without_quorum_justification_rejected(self):
        backup, ctx = make_instance(replica_id=1)
        bogus = HotStuffProposal(
            sender=0, instance=0, view=0, round=2, digest="d", tx_count=1, justify_votes=1
        )
        backup.on_message(0, bogus)
        assert not any(isinstance(m, HotStuffVote) for _, m, _ in ctx.sent)

    def test_vote_quorum_advances_high_qc(self):
        leader, _ = make_instance()
        proposal = leader.propose(Batch.synthetic(1, 0.0), now=0.0)
        leader.on_message(0, proposal)
        for sender in range(QUORUM):
            leader.on_message(
                sender,
                HotStuffVote(sender=sender, instance=0, view=0, round=1, digest=proposal.digest),
            )
        assert leader.high_qc_round == 1
        assert leader.ready_to_propose()

    def test_late_vote_for_a_qcd_round_forms_no_second_qc(self):
        leader, ctx = make_instance()
        formed = []
        leader._on_qc_formed = formed.append
        proposal = leader.propose(Batch.synthetic(1, 0.0), now=0.0)
        for sender in range(N):  # the quorum, then the trailing fourth vote
            leader.on_message(
                sender,
                HotStuffVote(sender=sender, instance=0, view=0, round=1, digest=proposal.digest),
            )
        # A quorum on a conflicting digest for the QC'd round is stale too.
        for sender in range(QUORUM):
            leader.on_message(
                sender, HotStuffVote(sender=sender, instance=0, view=0, round=1, digest="other")
            )
        assert formed == [1]
        assert ctx.crypto_ops["aggregate"] == 1
        assert leader.high_qc_round == 1
        assert leader.vote_tracker.tracked_keys() == 0


def justified(round, **fields):
    """A proposal from instance 0's leader (replica 0) for ``round``."""
    fields = dict(dict(parent_round=round - 1, digest=f"d{round}", tx_count=1), **fields)
    return HotStuffProposal(
        sender=0, instance=0, view=0, round=round,
        justify_votes=QUORUM if round > 1 else 0, **fields,
    )


def votes_sent(ctx):
    return [m for _, m, _ in ctx.sent if isinstance(m, HotStuffVote)]


class TestCommitRule:
    """What the 3-chain commit path guarantees, pinned on the message level."""

    def test_chain_with_a_parent_gap_does_not_commit(self):
        backup, ctx = make_instance(replica_id=1)
        # Round 3 extends round 1, not round 2: the chain 1-2-3-4 is not direct.
        for proposal in (justified(1), justified(2), justified(3, parent_round=1), justified(4)):
            backup.on_message(0, proposal)
        assert ctx.delivered == []
        assert len(votes_sent(ctx)) == 4  # every proposal was accepted and voted

    def test_chain_with_a_missing_round_does_not_commit(self):
        backup, ctx = make_instance(replica_id=1)
        for round in (1, 2, 4, 5, 6):
            backup.on_message(0, justified(round))
        assert ctx.delivered == []  # rounds 1-3 lack round 3, rounds 2-5 too

    def test_each_block_commits_exactly_once_at_every_replica(self):
        leader, leader_ctx = make_instance(replica_id=0)
        backups = [make_instance(replica_id=r) for r in range(1, N)]
        drive_chain(leader, leader_ctx, backups, rounds=8)
        proposals = [m for m, _ in leader_ctx.multicasts]
        # Re-deliver the whole chain, newest first, then oldest first.
        for proposal in proposals[::-1] + proposals:
            for node, _ in [(leader, leader_ctx)] + backups:
                node.on_message(proposal.sender, proposal)
        for _, ctx in [(leader, leader_ctx)] + backups:
            assert [b.round for b in ctx.delivered] == [1, 2, 3, 4, 5]

    def test_redelivered_proposal_at_or_below_the_watermark_is_dropped(self):
        backup, ctx = make_instance(replica_id=1)
        for round in range(1, 8):
            backup.on_message(0, justified(round))
        assert backup._stable_round == 4
        votes, nodes = len(votes_sent(ctx)), dict(backup.nodes)
        crypto = dict(ctx.crypto_ops)
        for round in range(1, backup._stable_round + 1):
            backup.on_message(0, justified(round))
        assert len(votes_sent(ctx)) == votes
        assert backup.nodes == nodes
        assert [b.round for b in ctx.delivered] == [1, 2, 3, 4]
        # Only the entry verification of each dropped copy is accounted.
        assert ctx.crypto_ops["verify"] == crypto["verify"] + 4
        assert ctx.crypto_ops["sign"] == crypto["sign"]

    def test_committed_block_carries_the_proposal_fields(self):
        backup, ctx = make_instance(cls=LadonHotStuffInstance, replica_id=1)
        proposals = [
            justified(
                round, rank=10 * round, epoch=round % 2, tx_count=100 + round,
                proposed_at=round + 0.25, batch_submitted_at=round + 0.5,
                rank_m=3, digest=f"digest-{round}",
            )
            for round in range(1, 5)
        ]
        ctx.time = 42.0
        for proposal in proposals:
            backup.on_message(0, proposal)
        [block] = ctx.delivered
        first = proposals[0]
        assert (block.instance, block.round, block.rank, block.epoch) == (0, 1, 10, 1)
        assert block.proposer == 0
        assert block.payload_digest == first.digest == "digest-1"
        assert block.tx_count_hint == 101 and block.tx_count == 101
        assert block.txs == first.txs
        assert block.proposed_at == 1.25
        assert block.batch_submitted_at == 1.5
        assert block.committed_at == 42.0
        assert list(backup.commit_log) == [(1, "digest-1")]


class TestLadonHotStuff:
    def test_proposal_rank_is_cur_rank_plus_one(self):
        leader, ctx = make_instance(cls=LadonHotStuffInstance, rank=11)
        proposal = leader.propose(Batch.synthetic(1, 0.0), now=0.0)
        assert proposal.rank == 12
        assert proposal.rank_m == 11

    def test_backup_adopts_leaders_rank_m(self):
        backup, ctx = make_instance(cls=LadonHotStuffInstance, replica_id=1, rank=0)
        proposal = HotStuffProposal(
            sender=0, instance=0, view=0, round=1, digest="d", tx_count=1, rank=8, rank_m=7
        )
        backup.on_message(0, proposal)
        assert ctx.rank == 7

    def test_votes_carry_voters_cur_rank(self):
        backup, ctx = make_instance(cls=LadonHotStuffInstance, replica_id=1, rank=33)
        proposal = HotStuffProposal(
            sender=0, instance=0, view=0, round=1, digest="d", tx_count=1, rank=8, rank_m=7
        )
        backup.on_message(0, proposal)
        votes = [m for _, m, _ in ctx.sent if isinstance(m, HotStuffVote)]
        assert votes and votes[0].rank_m == 33

    def test_leader_adopts_highest_vote_rank(self):
        leader, ctx = make_instance(cls=LadonHotStuffInstance, rank=0)
        proposal = leader.propose(Batch.synthetic(1, 0.0), now=0.0)
        leader.on_message(0, proposal)
        leader.on_message(
            2, HotStuffVote(sender=2, instance=0, view=0, round=1, digest=proposal.digest, rank_m=55)
        )
        assert ctx.rank == 55

    def test_rank_clamped_to_epoch_max_stops_proposals(self):
        leader, ctx = make_instance(cls=LadonHotStuffInstance, rank=62)
        ctx.epoch_length = 64
        proposal = leader.propose(Batch.synthetic(1, 0.0), now=0.0)
        assert proposal.rank == 63
        assert leader.stopped_for_epoch
        leader.begin_epoch(1)
        assert not leader.stopped_for_epoch

    def test_full_chain_commits_blocks_with_monotonic_ranks(self):
        leader, leader_ctx = make_instance(cls=LadonHotStuffInstance, replica_id=0)
        backups = [make_instance(cls=LadonHotStuffInstance, replica_id=r) for r in range(1, N)]
        drive_chain(leader, leader_ctx, backups, rounds=6)
        ranks = [b.rank for b in leader_ctx.delivered]
        assert len(ranks) >= 2
        assert all(later > earlier for earlier, later in zip(ranks, ranks[1:]))


class TestLazyPerInstanceState:
    LAZY = ("_committed_above", "_vote_ranks")

    def _own(self, instance):
        return sorted(name for name in self.LAZY if name in vars(instance))

    @pytest.mark.parametrize("cls", [HotStuffInstance, LadonHotStuffInstance])
    def test_in_order_chain_allocates_none_of_it(self, cls):
        leader, leader_ctx = make_instance(cls=cls, replica_id=0)
        backups = [make_instance(cls=cls, replica_id=r) for r in range(1, N)]
        drive_chain(leader, leader_ctx, backups, rounds=6)
        for instance in [leader] + [backup for backup, _ in backups]:
            assert instance.last_committed_round == 3 == instance._stable_round
            assert self._own(instance) == []
        assert leader.high_qc_round == 6

    def test_only_a_rank_manipulating_leader_keeps_vote_ranks(self):
        leader, _ = make_instance(cls=LadonHotStuffInstance, byzantine_rank_manipulation=True)
        proposal = leader.propose(Batch.synthetic(1, 0.0), now=0.0)
        leader.on_message(
            2, HotStuffVote(sender=2, instance=0, view=0, round=1, digest=proposal.digest, rank_m=9)
        )
        assert self._own(leader) == ["_vote_ranks"] and leader._vote_ranks == {2: 9}
