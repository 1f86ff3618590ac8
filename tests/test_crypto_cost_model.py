"""Tests for the modelled signature cost.

No run computes a signature.  What stands in for the paper's Ed25519/BLS
signatures (Sec. 3.2 and 5.3) is:

* the ``record_crypto`` counters each instance reports per sign, verify,
  aggregate and aggregate-verify, charged as CPU time by
  :class:`repro.metrics.resources.ResourceModel` (Table 1);
* the signer-count wire size of a rank certificate
  (:attr:`repro.core.rank.RankCertificate.size_bytes`);
* Ladon-opt's rank-difference key index, which lets every backup sign the
  same rank message so the leader can aggregate them into one proof.

These tests pin that model: what each path counts, what it costs, and how
large the certificates and proofs it puts on the wire are.
"""

import pytest

from repro.consensus.base import CollectingContext, InstanceConfig
from repro.consensus.ladon_opt import KEY_COUNT, LadonOptInstance
from repro.consensus.ladon_pbft import LadonPBFTInstance
from repro.consensus.messages import Commit, PrePrepare, Prepare, RankMessage
from repro.consensus.pbft import PBFTInstance
from repro.consensus.quorum import quorum_threshold
from repro.core.rank import RankCertificate, RankReport
from repro.metrics.resources import CryptoCostModel, ResourceModel
from repro.workload.transactions import Batch


OPERATIONS = ("sign", "verify", "aggregate", "verify_aggregate")
SIZES = (4, 7, 10, 16)


def make_instance(cls, n=4, replica_id=0, rank=0):
    config = InstanceConfig(instance_id=0, replica_id=replica_id, n=n)
    context = CollectingContext(rank=rank)
    return cls(config, context), context


def rank_message(sender, rank, quorum, round=1):
    return RankMessage(
        sender=sender,
        instance=0,
        view=0,
        round=round,
        rank=rank,
        certificate=RankCertificate(rank=rank, signer_count=quorum),
    )


def second_proposal(cls, n):
    """The leader's round-2 pre-prepare, after its own and 2f rank reports."""
    leader, context = make_instance(cls, n=n)
    leader.propose(Batch.synthetic(1, 0.0), now=0.0)
    leader.last_committed_round = 1
    quorum = quorum_threshold(n)
    # the leader stores its own report when it prepares round 1
    leader._store_rank_report(0, rank_message(0, rank=5, quorum=quorum))
    for sender in range(1, quorum):
        leader.on_message(sender, rank_message(sender, rank=5, quorum=quorum))
    message = leader.propose(Batch.synthetic(1, 0.0), now=1.0)
    assert message is not None and message.round == 2
    return message, context


def prepare_round_one(backup, block_rank=4):
    """Pre-prepare and prepare-quorum round 1 at ``backup`` (replica 1)."""
    quorum = backup.config.quorum
    backup.on_message(0, PrePrepare(
        sender=0, instance=0, view=0, round=1, digest="d", tx_count=1, rank=block_rank,
        aggregated_rank_proof_bytes=96 + quorum,
    ))
    for sender in range(quorum):
        backup.on_message(sender, Prepare(sender=sender, instance=0, view=0, round=1, digest="d", rank=block_rank))


def sent_rank_messages(context):
    return [message for _, message, _ in context.sent if isinstance(message, RankMessage)]


class TestCryptoCostModel:
    @pytest.mark.parametrize("operation", OPERATIONS)
    def test_each_operation_is_counted_and_charged(self, operation):
        model = ResourceModel()
        model.record_crypto(3, operation, count=7)
        usage = model.usage(3)
        assert usage.crypto_ops == {operation: 7}
        assert usage.cpu_seconds == pytest.approx(7 * CryptoCostModel().cost_of(operation))

    def test_cost_of_rejects_unknown_operation(self):
        with pytest.raises(KeyError):
            CryptoCostModel().cost_of("decrypt")

    def test_custom_cost_model_is_charged(self):
        model = ResourceModel(CryptoCostModel(sign=1e-3, verify_aggregate=2e-3))
        model.record_crypto(0, "sign", count=2)
        model.record_crypto(0, "verify_aggregate")
        assert model.usage(0).cpu_seconds == pytest.approx(4e-3)

    def test_counts_are_kept_per_replica(self):
        model = ResourceModel()
        model.record_crypto(0, "sign")
        model.record_crypto(0, "sign", count=2)
        model.record_crypto(1, "verify")
        assert model.usage(0).crypto_ops == {"sign": 3}
        assert model.usage(1).crypto_ops == {"verify": 1}

    def test_aggregating_costs_more_than_one_signature(self):
        # BLS aggregation and pairing checks are the expensive operations the
        # paper pays to shrink message complexity (Sec. 5.3).
        costs = CryptoCostModel()
        assert costs.sign < costs.verify < costs.aggregate < costs.verify_aggregate


class TestPBFTSignatureAccounting:
    def test_backup_round_signs_twice_and_verifies_every_message(self):
        backup, context = make_instance(PBFTInstance, replica_id=1)
        backup.on_message(0, PrePrepare(sender=0, instance=0, view=0, round=1, digest="d", tx_count=1, rank=1))
        for sender in range(3):
            backup.on_message(sender, Prepare(sender=sender, instance=0, view=0, round=1, digest="d", rank=1))
        for sender in range(3):
            backup.on_message(sender, Commit(sender=sender, instance=0, view=0, round=1, digest="d", rank=1))
        assert len(context.delivered) == 1
        # one prepare and one commit signed; the pre-prepare and 3 + 3 votes verified
        assert context.crypto_ops == {"sign": 2, "verify": 7}

    def test_proposal_signs_once(self):
        leader, context = make_instance(PBFTInstance)
        leader.propose(Batch.synthetic(1, 0.0), now=0.0)
        assert context.crypto_ops == {"sign": 1}


class TestRankVerificationCost:
    """Backups verify 2f+1 rank reports in Ladon-PBFT but one aggregate in Ladon-opt."""

    @pytest.mark.parametrize("n", SIZES)
    def test_ladon_pbft_backup_verifies_every_report(self, n):
        quorum = quorum_threshold(n)
        backup, context = make_instance(LadonPBFTInstance, n=n, replica_id=1)
        reports = tuple(RankReport(replica=r, rank=5, view=0, round=1, instance=0) for r in range(quorum))
        message = PrePrepare(
            sender=0, instance=0, view=0, round=2, digest="d", tx_count=1, rank=6, rank_reports=reports,
        )
        assert backup._validate_rank(message)
        assert context.crypto_ops == {"verify": quorum}

    @pytest.mark.parametrize("n", SIZES)
    def test_ladon_opt_backup_verifies_one_aggregate(self, n):
        backup, context = make_instance(LadonOptInstance, n=n, replica_id=1)
        message = PrePrepare(
            sender=0, instance=0, view=0, round=2, digest="d", tx_count=1, rank=6,
            aggregated_rank_proof_bytes=96 + quorum_threshold(n),
        )
        assert backup._validate_rank(message)
        assert context.crypto_ops == {"verify_aggregate": 1}

    @pytest.mark.parametrize("n", SIZES)
    def test_rank_proof_grows_one_byte_per_signer_instead_of_one_report(self, n):
        quorum = quorum_threshold(n)
        plain, _ = second_proposal(LadonPBFTInstance, n)
        opt, _ = second_proposal(LadonOptInstance, n)
        assert len(plain.rank_reports) == quorum
        assert opt.rank_reports == ()
        assert opt.aggregated_rank_proof_bytes == 96 + quorum
        report_bytes = sum(report.size_bytes for report in plain.rank_reports)
        assert plain.size_bytes - opt.size_bytes == report_bytes - (96 + quorum)

    @pytest.mark.parametrize("cls", [LadonPBFTInstance, LadonOptInstance])
    def test_leader_aggregates_once_per_proposal(self, cls):
        _, context = second_proposal(cls, n=4)
        assert context.crypto_ops["aggregate"] == 2
        assert context.crypto_ops["sign"] == 2
        # the two rank messages received, verified one by one
        assert context.crypto_ops["verify"] == 2

    def test_prepared_round_signs_one_rank_message(self):
        backup, context = make_instance(LadonOptInstance, replica_id=1)
        prepare_round_one(backup)
        # the prepare vote, the rank message and the commit vote
        assert context.crypto_ops["sign"] == 3
        assert context.crypto_ops["aggregate"] == 1
        assert len(sent_rank_messages(context)) == 1


class TestRankDifferenceKeys:
    """A backup's rank travels as ``block rank + key index`` (Sec. 5.3)."""

    @pytest.mark.parametrize(
        "difference", [0, 1, 5, KEY_COUNT - 2, KEY_COUNT - 1, KEY_COUNT, 3 * KEY_COUNT]
    )
    def test_leader_decodes_backup_rank(self, difference):
        backup, backup_ctx = make_instance(LadonOptInstance, replica_id=1, rank=4 + difference)
        prepare_round_one(backup, block_rank=4)
        (message,) = sent_rank_messages(backup_ctx)
        assert message.key_index == min(difference, KEY_COUNT - 1)

        leader, _ = make_instance(LadonOptInstance, replica_id=0)
        leader.on_message(1, message)
        # differences beyond the last key are reported as the last key's
        assert leader.rank_reports[1][1].rank == 4 + min(difference, KEY_COUNT - 1)

    def test_backup_behind_the_block_rank_signs_key_zero(self):
        # Preparing the block certifies its rank, so the backup catches up
        # to it before it signs.
        backup, context = make_instance(LadonOptInstance, replica_id=1, rank=2)
        prepare_round_one(backup, block_rank=4)
        (message,) = sent_rank_messages(context)
        assert context.rank == 4
        assert (message.rank, message.key_index) == (4, 0)

    def test_backups_sign_the_round_rank_whatever_their_own(self):
        signed = []
        for replica, rank in ((1, 4), (2, 9), (3, 4 + 2 * KEY_COUNT)):
            backup, context = make_instance(LadonOptInstance, replica_id=replica, rank=rank)
            prepare_round_one(backup, block_rank=4)
            (message,) = sent_rank_messages(context)
            signed.append(message)
        # the signed rank is the block's, so the leader can aggregate them;
        # only the key index tells the backups apart
        assert {(m.view, m.round, m.rank) for m in signed} == {(0, 1, 4)}
        assert [m.key_index for m in signed] == [0, 5, KEY_COUNT - 1]


class TestCertificateSizeModel:
    @pytest.mark.parametrize(
        "signers,size", [(1, 108), (32, 108), (33, 112), (64, 112), (65, 116), (85, 116), (128, 120)]
    )
    def test_signer_bitmap_grows_by_a_word_per_32_signers(self, signers, size):
        # 8 B rank + one 96 B aggregate point + a bitmap of 32-bit words
        assert RankCertificate(rank=1, signer_count=signers).size_bytes == size

    def test_size_does_not_depend_on_rank(self):
        sizes = {RankCertificate(rank=rank, signer_count=85).size_bytes for rank in (1, 64, 2**40)}
        assert len(sizes) == 1

    @pytest.mark.parametrize("n", (4, 16, 64, 128))
    def test_certificate_under_one_percent_of_a_2mb_block(self, n):
        # the paper's claim for the aggregate rank certificate (Sec. 5.3)
        cert = RankCertificate(rank=1, signer_count=quorum_threshold(n))
        assert cert.size_bytes < 0.01 * 2_000_000

    def test_report_is_one_signature_plus_its_certificate(self):
        cert = RankCertificate(rank=5, signer_count=3)
        report = RankReport(replica=2, rank=5, view=0, round=1, instance=0, certificate=cert)
        assert report.size_bytes == 64 + cert.size_bytes
        bare = RankReport(replica=2, rank=0, view=0, round=1, instance=0)
        assert bare.certificate.is_genesis()
        assert bare.size_bytes == 64 + 8
