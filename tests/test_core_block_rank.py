"""Tests for blocks, the ordering relation and monotonic rank bookkeeping."""

import pytest

from repro.core.block import Block, BlockId, ordering_key
from repro.core.rank import (
    RankCertificate,
    RankReport,
    RankState,
    choose_rank,
)


def make_block(instance=0, round=1, rank=0, **kwargs):
    return Block(instance=instance, round=round, rank=rank, **kwargs)


class TestBlock:
    def test_block_id(self):
        assert make_block(instance=2, round=5).block_id == BlockId(instance=2, round=5)

    def test_tx_count_from_txs(self):
        block = make_block(txs=("a", "b", "c"))
        assert block.tx_count == 3

    def test_tx_count_from_hint(self):
        block = make_block(tx_count_hint=4096)
        assert block.tx_count == 4096

    def test_materialised_txs_take_priority_over_hint(self):
        block = make_block(txs=("a",), tx_count_hint=10)
        assert block.tx_count == 1

    def test_payload_digest_filled(self):
        assert make_block().payload_digest != ""

    @pytest.mark.parametrize("field,value", [("rank", -1), ("round", -1), ("instance", -1)])
    def test_negative_fields_rejected(self, field, value):
        kwargs = {"instance": 0, "round": 1, "rank": 0}
        kwargs[field] = value
        with pytest.raises(ValueError):
            Block(**kwargs)


class TestOrderingRelation:
    """``a ≺ b`` (Sec. 4.2) is ``ordering_key(a) < ordering_key(b)``."""

    def test_lower_rank_precedes(self):
        assert ordering_key(make_block(rank=1, instance=5)) < ordering_key(make_block(rank=2, instance=0))

    def test_tie_broken_by_instance(self):
        first, second = make_block(rank=3, instance=0), make_block(rank=3, instance=1)
        assert ordering_key(first) < ordering_key(second)
        assert not ordering_key(second) < ordering_key(first)

    def test_not_reflexive(self):
        block = make_block(rank=2, instance=2)
        assert not ordering_key(block) < ordering_key(block)

    def test_ordering_key_is_rank_then_instance(self):
        assert ordering_key(make_block(rank=1, instance=3)) == (1, 3)


class TestRankState:
    def test_observe_advances(self):
        state = RankState()
        assert state.observe(5)
        assert state.rank == 5

    def test_observe_ignores_lower_or_equal(self):
        state = RankState()
        state.observe(5)
        assert not state.observe(5)
        assert not state.observe(3)
        assert state.rank == 5

    def test_observe_keeps_certificate(self):
        state = RankState()
        cert = RankCertificate(rank=7, signer_count=3)
        state.observe(7, cert)
        assert state.certificate is cert


def _report(replica, rank):
    return RankReport(replica=replica, rank=rank, view=0, round=1, instance=0)


class TestChooseRank:
    def test_honest_takes_max_plus_one(self):
        reports = [_report(0, 3), _report(1, 2), _report(2, 2)]
        rank, winning = choose_rank(reports, quorum=3, max_rank=100)
        assert rank == 4
        assert winning.replica == 0

    def test_clamped_to_max_rank(self):
        reports = [_report(0, 63), _report(1, 63), _report(2, 62)]
        rank, _ = choose_rank(reports, quorum=3, max_rank=63)
        assert rank == 63

    def test_requires_quorum(self):
        with pytest.raises(ValueError):
            choose_rank([_report(0, 1)], quorum=3, max_rank=10)

    def test_byzantine_discards_highest_when_extra_reports(self):
        # Appendix B case 3: ranks {3, 2, 2, 2} with quorum 3 -> honest picks
        # 4, a manipulating leader keeps the lowest three and picks 3.
        reports = [_report(0, 3), _report(1, 2), _report(2, 2), _report(3, 2)]
        honest_rank, _ = choose_rank(reports, quorum=3, max_rank=100)
        byz_rank, _ = choose_rank(reports, quorum=3, max_rank=100, byzantine_minimize=True)
        assert honest_rank == 4
        assert byz_rank == 3

    def test_byzantine_with_exact_quorum_cannot_manipulate(self):
        reports = [_report(0, 3), _report(1, 2), _report(2, 2)]
        byz_rank, _ = choose_rank(reports, quorum=3, max_rank=100, byzantine_minimize=True)
        assert byz_rank == 4

    def test_byzantine_rank_at_least_median_of_reports(self):
        # Sec. 4.4: the manipulated rank is >= the median reported rank + 1.
        reports = [_report(i, rank) for i, rank in enumerate([10, 9, 8, 7, 6, 5, 4])]
        quorum = 5
        byz_rank, _ = choose_rank(reports, quorum=quorum, max_rank=1000, byzantine_minimize=True)
        median = sorted(r.rank for r in reports)[len(reports) // 2]
        assert byz_rank >= median + 1


class TestRankCertificate:
    def test_genesis_certificate(self):
        cert = RankCertificate(rank=0)
        assert cert.signer_count == 0
        assert cert.size_bytes == 8

    def test_modelled_certificate_size_grows_with_signers(self):
        small = RankCertificate(rank=1, signer_count=3)
        large = RankCertificate(rank=1, signer_count=85)
        assert large.size_bytes > small.size_bytes
