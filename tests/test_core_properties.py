"""Property-based tests (hypothesis) for the ordering layer invariants.

These check the paper's G-Agreement / MR-Monotonicity style properties over
randomly generated block schedules rather than hand-picked examples.
"""

from typing import List, Tuple

from hypothesis import given, settings, strategies as st

from repro.consensus.quorum import quorum_threshold
from repro.core.block import Block, ordering_key
from repro.core.ordering import DynamicOrderer
from repro.core.predetermined import PredeterminedOrderer
from repro.core.rank import RankReport, choose_rank


# ----------------------------------------------------------------- strategies
@st.composite
def block_schedule(draw, max_instances=4, max_rounds=6):
    """A per-instance schedule of (round, rank) with ranks non-decreasing."""
    m = draw(st.integers(min_value=1, max_value=max_instances))
    schedule: List[Block] = []
    for instance in range(m):
        rounds = draw(st.integers(min_value=0, max_value=max_rounds))
        rank = 0
        for round in range(1, rounds + 1):
            rank += draw(st.integers(min_value=1, max_value=5))
            schedule.append(Block(instance=instance, round=round, rank=rank, tx_count_hint=1))
    order = draw(st.permutations(schedule))
    return m, list(order)


@st.composite
def delivery_interleavings(draw, max_instances=3, max_rounds=5):
    """Two different delivery orders of the same block set."""
    m, blocks = draw(block_schedule(max_instances, max_rounds))
    other = draw(st.permutations(blocks))
    return m, blocks, list(other)


# ------------------------------------------------------------------ dynamic
class TestDynamicOrdererProperties:
    @given(block_schedule())
    @settings(max_examples=80, deadline=None)
    def test_confirmed_sequence_sorted_by_ordering_key(self, schedule):
        m, blocks = schedule
        orderer = DynamicOrderer(num_instances=m)
        for i, block in enumerate(blocks):
            orderer.add_partially_committed(block, now=float(i))
        keys = [ordering_key(c.block) for c in orderer.confirmed]
        assert keys == sorted(keys)

    @given(block_schedule())
    @settings(max_examples=80, deadline=None)
    def test_sn_is_consecutive_and_unique(self, schedule):
        m, blocks = schedule
        orderer = DynamicOrderer(num_instances=m)
        for i, block in enumerate(blocks):
            orderer.add_partially_committed(block, now=float(i))
        sns = [c.sn for c in orderer.confirmed]
        assert sns == list(range(len(sns)))

    @given(block_schedule())
    @settings(max_examples=80, deadline=None)
    def test_no_block_confirmed_twice(self, schedule):
        m, blocks = schedule
        orderer = DynamicOrderer(num_instances=m)
        for i, block in enumerate(blocks):
            orderer.add_partially_committed(block, now=float(i))
            # Feed duplicates aggressively.
            orderer.add_partially_committed(block, now=float(i) + 0.5)
        ids = [c.block.block_id for c in orderer.confirmed]
        assert len(ids) == len(set(ids))

    @given(delivery_interleavings())
    @settings(max_examples=60, deadline=None)
    def test_agreement_across_delivery_orders(self, data):
        """G-Agreement: two replicas seeing different delivery interleavings of
        the same partially committed blocks confirm the same global sequence
        (for the prefix both have confirmed)."""
        m, order_a, order_b = data
        replica_a = DynamicOrderer(num_instances=m)
        replica_b = DynamicOrderer(num_instances=m)
        for i, block in enumerate(order_a):
            replica_a.add_partially_committed(block, now=float(i))
        for i, block in enumerate(order_b):
            replica_b.add_partially_committed(block, now=float(i))
        seq_a = [c.block.block_id for c in replica_a.confirmed]
        seq_b = [c.block.block_id for c in replica_b.confirmed]
        common = min(len(seq_a), len(seq_b))
        assert seq_a[:common] == seq_b[:common]

    @given(delivery_interleavings())
    @settings(max_examples=60, deadline=None)
    def test_totality_on_full_delivery(self, data):
        """After both replicas saw every block, the confirmed sets coincide."""
        m, order_a, order_b = data
        replica_a = DynamicOrderer(num_instances=m)
        replica_b = DynamicOrderer(num_instances=m)
        for i, block in enumerate(order_a):
            replica_a.add_partially_committed(block, now=float(i))
        for i, block in enumerate(order_b):
            replica_b.add_partially_committed(block, now=float(i))
        assert [c.block.block_id for c in replica_a.confirmed] == [
            c.block.block_id for c in replica_b.confirmed
        ]

    @given(block_schedule())
    @settings(max_examples=80, deadline=None)
    def test_confirmed_never_exceeds_delivered(self, schedule):
        m, blocks = schedule
        orderer = DynamicOrderer(num_instances=m)
        delivered = 0
        for i, block in enumerate(blocks):
            orderer.add_partially_committed(block, now=float(i))
            delivered += 1
            assert len(orderer.confirmed) + orderer.pending_count == delivered


# -------------------------------------------------------------- predetermined
class TestPredeterminedOrdererProperties:
    @given(delivery_interleavings())
    @settings(max_examples=60, deadline=None)
    def test_agreement_across_delivery_orders(self, data):
        m, order_a, order_b = data
        replica_a = PredeterminedOrderer(num_instances=m)
        replica_b = PredeterminedOrderer(num_instances=m)
        for i, block in enumerate(order_a):
            replica_a.add_partially_committed(block, now=float(i))
        for i, block in enumerate(order_b):
            replica_b.add_partially_committed(block, now=float(i))
        assert [c.block.block_id for c in replica_a.confirmed] == [
            c.block.block_id for c in replica_b.confirmed
        ]

    @given(block_schedule())
    @settings(max_examples=80, deadline=None)
    def test_confirmed_indices_contiguous(self, schedule):
        m, blocks = schedule
        orderer = PredeterminedOrderer(num_instances=m)
        for i, block in enumerate(blocks):
            orderer.add_partially_committed(block, now=float(i))
        sns = [c.sn for c in orderer.confirmed]
        assert sns == list(range(len(sns)))


# --------------------------------------------------------------------- ranks
class TestChooseRankProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=4, max_size=20),
        st.integers(min_value=4, max_value=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_honest_rank_exceeds_every_report(self, ranks, n):
        quorum = quorum_threshold(n)
        if len(ranks) < quorum:
            ranks = ranks + [0] * (quorum - len(ranks))
        reports = [
            RankReport(replica=i, rank=rank, view=0, round=1, instance=0)
            for i, rank in enumerate(ranks)
        ]
        max_rank = max(ranks) + 10
        rank, _ = choose_rank(reports, quorum=quorum, max_rank=max_rank)
        assert rank == max(ranks) + 1

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=6, max_size=30),
        st.integers(min_value=4, max_value=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_byzantine_rank_at_least_quorum_order_statistic(self, ranks, n):
        """Sec. 4.4: even the lowest-2f+1 manipulation cannot pick a rank below
        the quorum-th smallest reported rank + 1."""
        quorum = quorum_threshold(n)
        if len(ranks) < quorum:
            ranks = ranks + [0] * (quorum - len(ranks))
        reports = [
            RankReport(replica=i, rank=rank, view=0, round=1, instance=0)
            for i, rank in enumerate(ranks)
        ]
        max_rank = max(ranks) + 10
        byz_rank, _ = choose_rank(
            reports, quorum=quorum, max_rank=max_rank, byzantine_minimize=True
        )
        kth_smallest = sorted(ranks)[quorum - 1]
        assert byz_rank >= kth_smallest + 1

    @given(
        st.lists(st.integers(min_value=0, max_value=100), min_size=4, max_size=10),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_rank_never_exceeds_max_rank(self, ranks, max_rank):
        reports = [
            RankReport(replica=i, rank=rank, view=0, round=1, instance=0)
            for i, rank in enumerate(ranks)
        ]
        rank, _ = choose_rank(reports, quorum=len(ranks), max_rank=max_rank)
        assert rank <= max_rank
