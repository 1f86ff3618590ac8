"""Unit tests for Ladon-PBFT (Algorithm 2) and Ladon-opt (Sec. 5.3)."""

import pytest

from repro.consensus.base import CollectingContext, InstanceConfig
from repro.consensus.ladon_opt import KEY_COUNT, LadonOptInstance
from repro.consensus.ladon_pbft import LadonPBFTInstance
from repro.consensus.messages import Commit, PrePrepare, Prepare, RankMessage
from repro.core.rank import RankCertificate
from repro.workload.transactions import Batch


N = 4
QUORUM = 3


def make_instance(cls=LadonPBFTInstance, replica_id=0, instance_id=0, byzantine=False, rank=0, epoch=0):
    config = InstanceConfig(instance_id=instance_id, replica_id=replica_id, n=N)
    context = CollectingContext(rank=rank, epoch=epoch)
    instance = cls(config, context, byzantine_rank_manipulation=byzantine)
    return instance, context


def rank_message(sender, rank, round=1, instance=0):
    return RankMessage(
        sender=sender,
        instance=instance,
        view=0,
        round=round,
        rank=rank,
        certificate=RankCertificate(rank=rank, signer_count=QUORUM),
    )


class TestRankAssignment:
    def test_round_one_uses_leaders_current_rank(self):
        instance, context = make_instance(rank=7)
        message = instance.propose(Batch.synthetic(3, 0.0), now=1.0)
        assert message.rank == 8

    def test_round_one_rank_zero_start(self):
        instance, _ = make_instance(rank=0)
        message = instance.propose(Batch.synthetic(3, 0.0), now=1.0)
        assert message.rank == 1

    def test_later_round_requires_quorum_of_rank_reports(self):
        instance, context = make_instance()
        instance.propose(Batch.synthetic(1, 0.0), now=0.0)
        instance.last_committed_round = 1  # pretend round 1 committed
        assert not instance.ready_to_propose()  # no rank reports yet
        for sender in range(1, QUORUM):
            instance.on_message(sender, rank_message(sender, rank=5, round=1))
        # Leader's own report counts implicitly; with 2 external + itself at
        # proposal time it is still below quorum until a third arrives.
        instance._store_rank_report(0, rank_message(0, rank=4, round=1))
        assert instance.ready_to_propose()

    def test_rank_is_max_report_plus_one(self):
        instance, context = make_instance()
        instance.propose(Batch.synthetic(1, 0.0), now=0.0)
        instance.last_committed_round = 1
        for sender, rank in ((1, 3), (2, 9), (3, 6)):
            instance.on_message(sender, rank_message(sender, rank=rank, round=1))
        message = instance.propose(Batch.synthetic(1, 0.0), now=1.0)
        assert message.round == 2
        assert message.rank == 10
        assert len(message.rank_reports) >= QUORUM

    def test_leaders_own_fresh_rank_counts(self):
        # The leader has observed rank 20 via other instances; even if the
        # collected reports are stale, its own report keeps the rank fresh.
        instance, context = make_instance()
        instance.propose(Batch.synthetic(1, 0.0), now=0.0)
        instance.last_committed_round = 1
        context.rank = 20
        for sender, rank in ((1, 3), (2, 2), (3, 2)):
            instance.on_message(sender, rank_message(sender, rank=rank, round=1))
        message = instance.propose(Batch.synthetic(1, 0.0), now=1.0)
        assert message.rank == 21

    def test_rank_clamped_to_epoch_max_and_stops_proposing(self):
        instance, context = make_instance(rank=62)
        context.epoch_length = 64  # maxRank(0) = 63
        message = instance.propose(Batch.synthetic(1, 0.0), now=0.0)
        assert message.rank == 63
        assert instance.stopped_for_epoch
        instance.last_committed_round = 1
        assert not instance.ready_to_propose()

    def test_begin_epoch_resumes_proposing(self):
        instance, context = make_instance(rank=62)
        instance.propose(Batch.synthetic(1, 0.0), now=0.0)
        assert instance.stopped_for_epoch
        context.epoch = 1
        instance.begin_epoch(1)
        assert not instance.stopped_for_epoch


class TestByzantineManipulation:
    def test_byzantine_leader_uses_lowest_quorum(self):
        honest, _ = make_instance(byzantine=False)
        byz, _ = make_instance(byzantine=True)
        for instance in (honest, byz):
            instance.propose(Batch.synthetic(1, 0.0), now=0.0)
            instance.last_committed_round = 1
            for sender, rank in ((1, 10), (2, 4), (3, 4)):
                instance.on_message(sender, rank_message(sender, rank=rank, round=1))
        honest_msg = honest.propose(Batch.synthetic(1, 0.0), now=1.0)
        byz_msg = byz.propose(Batch.synthetic(1, 0.0), now=1.0)
        assert honest_msg.rank == 11
        assert byz_msg.rank < honest_msg.rank

    def test_byzantine_report_set_still_validates_at_backups(self):
        byz, _ = make_instance(byzantine=True)
        byz.propose(Batch.synthetic(1, 0.0), now=0.0)
        byz.last_committed_round = 1
        for sender, rank in ((1, 10), (2, 4), (3, 4)):
            byz.on_message(sender, rank_message(sender, rank=rank, round=1))
        byz_msg = byz.propose(Batch.synthetic(1, 0.0), now=1.0)
        backup, _ = make_instance(replica_id=1)
        assert backup._validate_rank(byz_msg)


class TestRankValidation:
    def _valid_pre_prepare(self, rank_reports, rank, round=2):
        return PrePrepare(
            sender=0,
            instance=0,
            view=0,
            round=round,
            digest="d",
            tx_count=1,
            rank=rank,
            rank_reports=rank_reports,
            rank_certificate=RankCertificate(rank=rank - 1, signer_count=QUORUM),
        )

    def test_accepts_correct_rank(self):
        backup, context = make_instance(replica_id=1)
        reports = tuple(rank_message(s, 5, 1).to_report() for s in range(QUORUM))
        message = self._valid_pre_prepare(reports, rank=6)
        assert backup._validate_rank(message)

    def test_rejects_rank_not_max_plus_one(self):
        backup, _ = make_instance(replica_id=1)
        reports = tuple(rank_message(s, 5, 1).to_report() for s in range(QUORUM))
        assert not backup._validate_rank(self._valid_pre_prepare(reports, rank=8))
        assert not backup._validate_rank(self._valid_pre_prepare(reports, rank=5))

    def test_rejects_insufficient_reports(self):
        backup, _ = make_instance(replica_id=1)
        reports = tuple(rank_message(s, 5, 1).to_report() for s in range(QUORUM - 1))
        assert not backup._validate_rank(self._valid_pre_prepare(reports, rank=6))

    def test_rejects_duplicate_reporters(self):
        backup, _ = make_instance(replica_id=1)
        reports = tuple(rank_message(1, 5, 1).to_report() for _ in range(QUORUM))
        assert not backup._validate_rank(self._valid_pre_prepare(reports, rank=6))

    def test_round_one_needs_single_report(self):
        backup, _ = make_instance(replica_id=1)
        reports = (rank_message(0, 5, 0).to_report(),)
        assert backup._validate_rank(self._valid_pre_prepare(reports, rank=6, round=1))

    def test_invalid_rank_means_no_prepare(self):
        backup, context = make_instance(replica_id=1)
        reports = tuple(rank_message(s, 5, 1).to_report() for s in range(QUORUM))
        bad = self._valid_pre_prepare(reports, rank=9)
        backup.on_message(0, bad)
        assert not any(isinstance(m, Prepare) for m, _ in context.multicasts)


class TestRankFlow:
    def test_prepared_round_sends_rank_message_to_leader(self):
        backup, context = make_instance(replica_id=1)
        reports = (rank_message(0, 0, 0).to_report(),)
        pre_prepare = PrePrepare(
            sender=0, instance=0, view=0, round=1, digest="d", tx_count=1, rank=1,
            rank_reports=reports,
        )
        backup.on_message(0, pre_prepare)
        for sender in range(QUORUM):
            backup.on_message(sender, Prepare(sender=sender, instance=0, view=0, round=1, digest="d", rank=1))
        rank_msgs = [(dest, m) for dest, m, _ in context.sent if isinstance(m, RankMessage)]
        assert len(rank_msgs) == 1
        dest, message = rank_msgs[0]
        assert dest == 0  # the instance leader
        assert message.rank >= 1

    def test_cur_rank_updated_on_prepared(self):
        backup, context = make_instance(replica_id=1)
        reports = (rank_message(0, 0, 0).to_report(),)
        pre_prepare = PrePrepare(
            sender=0, instance=0, view=0, round=1, digest="d", tx_count=1, rank=1,
            rank_reports=reports,
        )
        backup.on_message(0, pre_prepare)
        for sender in range(QUORUM):
            backup.on_message(sender, Prepare(sender=sender, instance=0, view=0, round=1, digest="d", rank=1))
        assert context.rank >= 1

    def test_rank_message_updates_any_replicas_cur_rank(self):
        backup, context = make_instance(replica_id=1)
        backup.on_message(2, rank_message(2, rank=42))
        assert context.rank == 42

    def test_leader_keeps_highest_report_per_sender(self):
        leader, _ = make_instance(replica_id=0)
        leader._store_rank_report(1, rank_message(1, rank=5, round=3))
        leader._store_rank_report(1, rank_message(1, rank=3, round=3))
        assert leader.rank_reports[3][1].rank == 5


class TestLadonOpt:
    def test_pre_prepare_carries_aggregate_not_reports(self):
        instance, context = make_instance(cls=LadonOptInstance)
        message = instance.propose(Batch.synthetic(2, 0.0), now=0.0)
        assert message.rank_reports == ()
        assert message.aggregated_rank_proof_bytes > 0

    def test_opt_pre_prepare_smaller_than_plain(self):
        plain, _ = make_instance(cls=LadonPBFTInstance)
        opt, _ = make_instance(cls=LadonOptInstance)
        for instance in (plain, opt):
            instance.propose(Batch.synthetic(1, 0.0), now=0.0)
            instance.last_committed_round = 1
            for sender in range(1, N):
                instance.on_message(sender, rank_message(sender, rank=5, round=1))
        plain_msg = plain.propose(Batch.synthetic(1, 0.0), now=1.0)
        opt_msg = opt.propose(Batch.synthetic(1, 0.0), now=1.0)
        assert opt_msg.size_bytes < plain_msg.size_bytes

    @pytest.mark.parametrize(
        "current_rank,key_index", [(9, 9 - 4), (4 + KEY_COUNT + 3, KEY_COUNT - 1)]
    )
    def test_rank_difference_encoded_in_key_index(self, current_rank, key_index):
        backup, context = make_instance(cls=LadonOptInstance, replica_id=1)
        context.rank = current_rank
        pre_prepare = PrePrepare(
            sender=0, instance=0, view=0, round=1, digest="d", tx_count=1, rank=4,
            aggregated_rank_proof_bytes=99,
        )
        backup.on_message(0, pre_prepare)
        for sender in range(QUORUM):
            backup.on_message(sender, Prepare(sender=sender, instance=0, view=0, round=1, digest="d", rank=4))
        rank_msgs = [m for _, m, _ in context.sent if isinstance(m, RankMessage)]
        assert len(rank_msgs) == 1
        assert rank_msgs[0].rank == 4
        assert rank_msgs[0].key_index == key_index

    def test_leader_decodes_rank_from_key_index(self):
        leader, _ = make_instance(cls=LadonOptInstance, replica_id=0)
        message = RankMessage(sender=2, instance=0, view=0, round=1, rank=4, key_index=5)
        leader._store_rank_report(2, message)
        assert leader.rank_reports[1][2].rank == 9

    def test_opt_validation_accepts_aggregate(self):
        backup, _ = make_instance(cls=LadonOptInstance, replica_id=1)
        message = PrePrepare(
            sender=0, instance=0, view=0, round=2, digest="d", tx_count=1, rank=3,
            aggregated_rank_proof_bytes=99,
        )
        assert backup._validate_rank(message)

    def test_opt_validation_rejects_missing_aggregate(self):
        backup, _ = make_instance(cls=LadonOptInstance, replica_id=1)
        message = PrePrepare(
            sender=0, instance=0, view=0, round=2, digest="d", tx_count=1, rank=3,
        )
        assert not backup._validate_rank(message)
