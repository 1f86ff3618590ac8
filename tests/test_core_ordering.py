"""Tests for the global ordering layer: dynamic (Ladon), pre-determined
(ISS/Mir/RCC) and DQBFT orderers."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.block import Block, BlockId, ordering_key
from repro.core.dqbft_ordering import DQBFTOrderer
from repro.core.ordering import _BAR_HEAP_SLACK, ConfirmationBar, DynamicOrderer
from repro.core.predetermined import PredeterminedOrderer

from reference_orderer import ScanDrainDynamicOrderer, held_blocks


def block(instance, round, rank, proposed_at=0.0, committed_at=None):
    return Block(
        instance=instance,
        round=round,
        rank=rank,
        proposed_at=proposed_at,
        committed_at=committed_at,
        tx_count_hint=10,
    )


class TestConfirmationBar:
    def test_admits_lower_rank(self):
        bar = ConfirmationBar(rank=3, instance=1)
        assert bar.admits(block(0, 1, 2))

    def test_admits_equal_rank_lower_instance(self):
        bar = ConfirmationBar(rank=3, instance=1)
        assert bar.admits(block(0, 1, 3))

    def test_rejects_equal_rank_same_instance(self):
        bar = ConfirmationBar(rank=3, instance=1)
        assert not bar.admits(block(1, 1, 3))

    def test_rejects_higher_rank(self):
        bar = ConfirmationBar(rank=3, instance=1)
        assert not bar.admits(block(0, 1, 4))


class TestDynamicOrdererPaperExample:
    def test_figure_3_example(self):
        """Reproduce the worked example of Fig. 3 / Sec. 4.2.

        Instances 0,1,2; when B^2_2 is partially committed the replica can
        confirm B^1_2 and B^0_3 but not B^2_2 itself.
        """
        orderer = DynamicOrderer(num_instances=3)
        # Ranks chosen to match the figure: G_out = {B01, B02, B11, B21}
        orderer.add_partially_committed(block(0, 1, 0), now=1.0)
        orderer.add_partially_committed(block(1, 1, 0), now=1.0)
        orderer.add_partially_committed(block(2, 1, 0), now=1.0)
        orderer.add_partially_committed(block(0, 2, 1), now=2.0)
        orderer.add_partially_committed(block(0, 3, 3), now=3.0)
        orderer.add_partially_committed(block(1, 2, 2), now=3.0)
        already = {c.block.block_id for c in orderer.confirmed}
        assert BlockId(0, 1) in already and BlockId(1, 1) in already
        # Now B^2_2 with rank 4 arrives: bar becomes (3, 1) and B^1_2 (rank 2)
        # and B^0_3 (rank 3, instance 0 < 1) are confirmed; B^2_2 is not.
        newly = orderer.add_partially_committed(block(2, 2, 4), now=4.0)
        newly_ids = [c.block.block_id for c in newly]
        assert BlockId(1, 2) in newly_ids
        assert BlockId(0, 3) in newly_ids
        assert BlockId(2, 2) not in newly_ids
        assert orderer.pending_count == 1


class TestDynamicOrderer:
    def test_nothing_confirmed_until_every_instance_contributes(self):
        orderer = DynamicOrderer(num_instances=3)
        orderer.add_partially_committed(block(0, 1, 0), now=1.0)
        newly = orderer.add_partially_committed(block(1, 1, 1), now=1.0)
        assert newly == []
        assert orderer.confirmed == ()

    def test_confirmation_order_follows_rank_then_instance(self):
        orderer = DynamicOrderer(num_instances=2)
        orderer.add_partially_committed(block(1, 1, 0), now=1.0)
        orderer.add_partially_committed(block(0, 1, 0), now=1.0)
        orderer.add_partially_committed(block(0, 2, 1), now=2.0)
        orderer.add_partially_committed(block(1, 2, 2), now=2.0)
        ranks = [(c.block.rank, c.block.instance) for c in orderer.confirmed]
        assert ranks == sorted(ranks)

    def test_global_indices_are_consecutive(self):
        orderer = DynamicOrderer(num_instances=2)
        for round in range(1, 5):
            orderer.add_partially_committed(block(0, round, round), now=round)
            orderer.add_partially_committed(block(1, round, round), now=round)
        sns = [c.sn for c in orderer.confirmed]
        assert sns == list(range(len(sns)))

    def test_duplicate_delivery_ignored(self):
        orderer = DynamicOrderer(num_instances=1)
        orderer.add_partially_committed(block(0, 1, 0), now=1.0)
        again = orderer.add_partially_committed(block(0, 1, 0), now=2.0)
        assert again == []

    def test_out_of_order_rounds_wait_for_prefix(self):
        # A block only becomes partially *confirmed* when all earlier rounds
        # of its instance are partially committed; the bar must not advance
        # past a gap.
        orderer = DynamicOrderer(num_instances=2)
        orderer.add_partially_committed(block(0, 1, 0), now=1.0)
        orderer.add_partially_committed(block(1, 2, 5), now=1.0)  # round 1 missing
        orderer.add_partially_committed(block(0, 2, 6), now=2.0)
        assert orderer.confirmed == ()
        # Fill the gap: now instance 1's prefix reaches round 2 (rank 5).
        orderer.add_partially_committed(block(1, 1, 1), now=3.0)
        confirmed_ranks = [c.block.rank for c in orderer.confirmed]
        assert 0 in confirmed_ranks and 1 in confirmed_ranks and 5 in confirmed_ranks

    def test_straggler_release_on_next_block(self):
        """Blocks pile up while one instance is silent and flush when it speaks."""
        orderer = DynamicOrderer(num_instances=3)
        # Round 1 from everyone.
        for inst in range(3):
            orderer.add_partially_committed(block(inst, 1, inst), now=1.0)
        # Instance 2 goes quiet; instances 0 and 1 keep producing.
        rank = 3
        for round in range(2, 7):
            for inst in (0, 1):
                orderer.add_partially_committed(block(inst, round, rank), now=float(round))
                rank += 1
        pending_before = orderer.pending_count
        assert pending_before >= 8
        # The straggler's next block carries a fresh (high) rank and releases
        # everything below the new bar; only the very last blocks of the fast
        # instances (and the straggler's own new block) can remain pending.
        newly = orderer.add_partially_committed(block(2, 2, rank + 1), now=10.0)
        assert len(newly) >= pending_before - 2
        assert orderer.pending_count <= 2

    def test_rejects_unknown_instance(self):
        orderer = DynamicOrderer(num_instances=2)
        with pytest.raises(ValueError):
            orderer.add_partially_committed(block(5, 1, 0), now=0.0)

    def test_rejects_zero_instances(self):
        with pytest.raises(ValueError):
            DynamicOrderer(num_instances=0)

    def test_current_bar_none_before_full_coverage(self):
        orderer = DynamicOrderer(num_instances=2)
        orderer.add_partially_committed(block(0, 1, 0), now=1.0)
        assert orderer.current_bar() is None

    def test_unconfirmed_blocks_sorted(self):
        orderer = DynamicOrderer(num_instances=3)
        orderer.add_partially_committed(block(0, 1, 5), now=1.0)
        orderer.add_partially_committed(block(1, 1, 2), now=1.0)
        pending = orderer.unconfirmed_blocks()
        assert [b.rank for b in pending] == [2, 5]


def random_workload(seed, num_instances, rounds):
    """A randomized partial-commit schedule: per-instance monotone ranks,
    random cross-instance interleaving, occasional out-of-order delivery."""
    rng = random.Random(seed)
    blocks = []
    rank = 0
    per_instance = {i: [] for i in range(num_instances)}
    for round_ in range(1, rounds + 1):
        instances = list(range(num_instances))
        rng.shuffle(instances)
        for instance in instances:
            rank += rng.randint(1, 3)
            per_instance[instance].append(Block(instance=instance, round=round_, rank=rank))
    for instance, seq in per_instance.items():
        blocks.extend(seq)
    rng.shuffle(blocks)
    # Out-of-order delivery within an instance is allowed (the orderer must
    # wait for the contiguous round prefix); the shuffle above produces it.
    return blocks


class TestHeapDrainEquivalence:
    """Property tests: heap-based drain ≡ the reference implementation."""

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_workloads_confirm_identically(self, seed):
        rng = random.Random(1000 + seed)
        num_instances = rng.randint(1, 6)
        blocks = random_workload(seed, num_instances, rounds=rng.randint(3, 25))
        heap_orderer = DynamicOrderer(num_instances)
        scan_orderer = ScanDrainDynamicOrderer(num_instances)
        for step, blk in enumerate(blocks):
            now = float(step)
            newly_heap = heap_orderer.add_partially_committed(blk, now=now)
            newly_scan = scan_orderer.add_partially_committed(blk, now=now)
            assert [(c.block.block_id, c.sn, c.confirmed_at) for c in newly_heap] == [
                (c.block.block_id, c.sn, c.confirmed_at) for c in newly_scan
            ]
        assert [(c.block.block_id, c.sn) for c in heap_orderer.confirmed] == [
            (c.block.block_id, c.sn) for c in scan_orderer.confirmed
        ]
        assert heap_orderer.pending_count == scan_orderer.pending_count
        assert [b.block_id for b in heap_orderer.unconfirmed_blocks()] == [
            b.block_id for b in scan_orderer.unconfirmed_blocks()
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_confirmed_follows_precedence_order(self, seed):
        blocks = random_workload(seed, num_instances=4, rounds=20)
        orderer = DynamicOrderer(4)
        for step, blk in enumerate(blocks):
            orderer.add_partially_committed(blk, now=float(step))
        keys = [ordering_key(c.block) for c in orderer.confirmed]
        assert keys == sorted(keys)
        assert [c.sn for c in orderer.confirmed] == list(range(len(keys)))

    def test_duplicate_delivery_keeps_heap_consistent(self):
        orderer = DynamicOrderer(2)
        orderer.add_partially_committed(block(0, 1, 0), now=1.0)
        orderer.add_partially_committed(block(0, 1, 0), now=1.5)  # duplicate
        orderer.add_partially_committed(block(1, 1, 1), now=2.0)
        assert [c.block.block_id for c in orderer.confirmed] == [BlockId(0, 1)]
        assert orderer.pending_count == 1


class TestIncrementalBarEquivalence:
    """The O(log m) incremental bar ≡ the O(m) scan, step for step."""

    @pytest.mark.parametrize("seed", range(10))
    def test_bar_matches_scan_after_every_delivery(self, seed):
        rng = random.Random(7000 + seed)
        num_instances = rng.randint(1, 7)
        blocks = random_workload(seed, num_instances, rounds=rng.randint(3, 30))
        orderer = DynamicOrderer(num_instances)
        scan = ScanDrainDynamicOrderer(num_instances)
        for step, blk in enumerate(blocks):
            orderer.add_partially_committed(blk, now=float(step))
            scan.add_partially_committed(blk, now=float(step))
            scan_bar = scan._compute_bar()
            incremental = orderer._bar_key()
            if scan_bar is None:
                assert incremental is None
            else:
                assert incremental == (scan_bar.rank, scan_bar.instance)
            assert orderer.current_bar() == scan_bar

    @pytest.mark.parametrize("seed", range(6))
    def test_non_monotone_ranks_still_agree(self, seed):
        """Ranks clamped at an epoch maxRank (equal across rounds) and even
        adversarially *decreasing* ranks must not break the lazy bar heap."""
        rng = random.Random(9000 + seed)
        num_instances = rng.randint(2, 5)
        orderer = DynamicOrderer(num_instances)
        scan = ScanDrainDynamicOrderer(num_instances)
        step = 0
        for round_ in range(1, 15):
            for instance in range(num_instances):
                rank = rng.choice([round_, round_, 7, max(0, 10 - round_)])
                blk = block(instance, round_, rank)
                now = float(step)
                got = [(c.block.block_id, c.sn) for c in
                       orderer.add_partially_committed(blk, now=now)]
                want = [(c.block.block_id, c.sn) for c in
                        scan.add_partially_committed(blk, now=now)]
                assert got == want
                step += 1

    def test_compact_mode_matches_retaining_mode(self):
        blocks = random_workload(3, 4, rounds=20)
        retaining = DynamicOrderer(4, retain_blocks=True)
        compact = DynamicOrderer(4, retain_blocks=False)
        for step, blk in enumerate(blocks):
            retaining.add_partially_committed(blk, now=float(step))
            compact.add_partially_committed(blk, now=float(step))
        assert compact.confirmed_fingerprints() == retaining.confirmed_fingerprints()
        assert compact.confirmed_count == retaining.confirmed_count == len(
            retaining.confirmed
        )
        with pytest.raises(RuntimeError):
            compact.confirmed


class TestDynamicOrdererBoundedMemory:
    """Internal state stays O(active window), not O(history)."""

    def test_round_buffers_pruned_behind_prefix(self):
        orderer = DynamicOrderer(2)
        step = 0
        for round_ in range(1, 201):
            for instance in (0, 1):
                orderer.add_partially_committed(
                    block(instance, round_, round_), now=float(step)
                )
                step += 1
        # Everything up to the bar is confirmed; buffers hold only
        # out-of-order arrivals (none here), not 200 rounds of history.
        for instance in (0, 1):
            assert len(orderer._by_instance[instance]) == 0
        assert orderer.confirmed_count > 300
        assert orderer.pending_count == len(orderer._heap) <= 4
        # Stale bar entries surface at the top (ranks grow) and get popped:
        # the lazy heap stays at ~one live entry per instance.
        assert len(orderer._bar_heap) <= 4

    def test_held_bar_keeps_the_bar_heap_bounded(self):
        """A straggler holding the bar must not make the bar heap grow with
        every rank change of the other instances."""
        m, rounds = 8, 2000
        orderer = DynamicOrderer(m, retain_blocks=True)
        reference = ScanDrainDynamicOrderer(m)
        schedule = [block(0, 1, 0)]  # instance 0 then stays at round 1
        rank = 1
        for round_ in range(1, rounds + 1):
            for instance in range(1, m):
                schedule.append(block(instance, round_, rank))
                rank += 1
        release = block(0, 2, rank)
        for step, blk in enumerate(schedule):
            newly = orderer.add_partially_committed(blk, now=float(step))
            if step == m:
                # The bar is held from here on: nothing confirms, so the
                # reference's O(k) scan per delivery is skipped until release.
                real_drain, reference._drain = reference._drain, lambda now: []
            if step >= m:
                assert newly == []
            reference.add_partially_committed(blk, now=float(step))
            assert len(orderer._bar_heap) <= 2 * m + _BAR_HEAP_SLACK
        reference._drain = real_drain
        assert orderer.pending_count == len(orderer._heap) > (m - 1) * (rounds - 1)
        assert orderer.pending_count == reference.pending_count
        orderer.add_partially_committed(release, now=float(len(schedule)))
        reference.add_partially_committed(release, now=float(len(schedule)))
        assert [(c.sn, c.block.block_id, c.confirmed_at) for c in orderer.confirmed] == [
            (c.sn, c.block.block_id, c.confirmed_at) for c in reference.confirmed
        ]
        assert orderer.pending_count == reference.pending_count
        assert [b.block_id for b in orderer.unconfirmed_blocks()] == [
            b.block_id for b in reference.unconfirmed_blocks()
        ]

    def test_duplicates_detected_via_watermark_after_pruning(self):
        orderer = DynamicOrderer(2)
        orderer.add_partially_committed(block(0, 1, 1), now=0.0)
        orderer.add_partially_committed(block(1, 1, 2), now=1.0)
        confirmed_before = orderer.confirmed_count
        # Round 1 of instance 0 is confirmed and gone from every buffer; the
        # prefix cursor (the next round instance 0 needs) still recognises a
        # late duplicate.
        assert orderer.add_partially_committed(block(0, 1, 1), now=2.0) == []
        assert orderer.confirmed_count == confirmed_before

    def _two_instances(self):
        """Instance 0 round 1 confirmed, instance 1 round 1 pending inside
        its prefix, instance 0 round 3 buffered out of order (round 2 missing)."""
        orderer = DynamicOrderer(2)
        orderer.add_partially_committed(block(0, 1, 1), now=0.0)
        orderer.add_partially_committed(block(1, 1, 2), now=1.0)
        orderer.add_partially_committed(block(0, 3, 5), now=2.0)
        assert [c.block.block_id for c in orderer.confirmed] == [BlockId(0, 1)]
        assert [b.block_id for b in orderer.unconfirmed_blocks()] == [
            BlockId(1, 1), BlockId(0, 3)
        ]
        return orderer

    @pytest.mark.parametrize(
        "duplicate",
        [block(0, 1, 1), block(1, 1, 2), block(0, 3, 5)],
        ids=["confirmed", "pending-in-prefix", "buffered-out-of-order"],
    )
    def test_duplicate_delivery_of_every_kind_of_round_is_ignored(self, duplicate):
        orderer = self._two_instances()
        counts = (orderer.confirmed_count, orderer.pending_count)
        assert orderer.add_partially_committed(duplicate, now=3.0) == []
        assert (orderer.confirmed_count, orderer.pending_count) == counts
        # the duplicate left no trace: filling the gap confirms each once
        orderer.add_partially_committed(block(0, 2, 3), now=4.0)
        orderer.add_partially_committed(block(1, 2, 9), now=5.0)
        ids = [c.block.block_id for c in orderer.confirmed]
        assert ids == [BlockId(0, 1), BlockId(1, 1), BlockId(0, 2), BlockId(0, 3)]


class TestPredeterminedOrderer:
    def test_global_index_layout(self):
        orderer = PredeterminedOrderer(num_instances=3)
        assert orderer.global_index(block(0, 1, 0)) == 0
        assert orderer.global_index(block(2, 1, 0)) == 2
        assert orderer.global_index(block(1, 2, 0)) == 4

    def test_confirms_in_index_order(self):
        orderer = PredeterminedOrderer(num_instances=2)
        orderer.add_partially_committed(block(1, 1, 0), now=1.0)
        assert orderer.confirmed == ()  # waiting for index 0
        newly = orderer.add_partially_committed(block(0, 1, 0), now=2.0)
        assert [c.sn for c in newly] == [0, 1]

    def test_hole_blocks_everything_after_it(self):
        orderer = PredeterminedOrderer(num_instances=3)
        # Instance 1 (the straggler) never delivers round 1.
        orderer.add_partially_committed(block(0, 1, 0), now=1.0)
        orderer.add_partially_committed(block(2, 1, 0), now=1.0)
        for round in range(2, 5):
            orderer.add_partially_committed(block(0, round, 0), now=float(round))
            orderer.add_partially_committed(block(2, round, 0), now=float(round))
        assert len(orderer.confirmed) == 1  # only index 0
        # The straggler's block arrives: exactly the contiguous prefix flushes
        # (indices 1 and 2 from round 1, then index 3 = instance 0's round 2;
        # index 4 is the straggler's still-missing round 2).
        newly = orderer.add_partially_committed(block(1, 1, 0), now=9.0)
        assert [c.sn for c in newly] == [1, 2, 3]
        assert len(orderer.confirmed) == 4

    def test_duplicate_ignored(self):
        orderer = PredeterminedOrderer(num_instances=1)
        orderer.add_partially_committed(block(0, 1, 0), now=1.0)
        assert orderer.add_partially_committed(block(0, 1, 0), now=2.0) == []

    def test_round_zero_rejected(self):
        orderer = PredeterminedOrderer(num_instances=1)
        with pytest.raises(ValueError):
            orderer.global_index(Block(instance=0, round=0, rank=0))

    def test_pending_count(self):
        orderer = PredeterminedOrderer(num_instances=2)
        orderer.add_partially_committed(block(1, 1, 0), now=1.0)
        assert orderer.pending_count == 1

    def test_holes_drain_in_index_order(self):
        orderer = PredeterminedOrderer(num_instances=3)
        assert orderer.add_partially_committed(block(2, 2, 0), now=1.0) == []  # index 5
        newly = orderer.add_partially_committed(block(0, 1, 0), now=2.0)  # index 0 drains
        assert [c.sn for c in newly] == [0]
        for blk in (block(1, 1, 0), block(2, 1, 0), block(0, 2, 0), block(1, 2, 0)):
            orderer.add_partially_committed(blk, now=3.0)
        assert orderer.pending_count == 0
        assert [c.sn for c in orderer.confirmed] == [0, 1, 2, 3, 4, 5]


class TestDQBFTOrderer:
    def test_blocks_wait_for_decisions(self):
        orderer = DQBFTOrderer(num_instances=2)
        orderer.add_partially_committed(block(0, 1, 0), now=1.0)
        assert orderer.confirmed == ()
        newly = orderer.add_sequencing_decision(BlockId(0, 1), now=2.0)
        assert len(newly) == 1
        assert newly[0].sn == 0

    def test_decision_before_block(self):
        orderer = DQBFTOrderer(num_instances=2)
        orderer.add_sequencing_decision(BlockId(1, 1), now=1.0)
        newly = orderer.add_partially_committed(block(1, 1, 0), now=2.0)
        assert len(newly) == 1

    def test_order_follows_decisions_not_ranks(self):
        orderer = DQBFTOrderer(num_instances=2)
        orderer.add_partially_committed(block(0, 1, 0), now=1.0)
        orderer.add_partially_committed(block(1, 1, 99), now=1.0)
        orderer.add_sequencing_decision(BlockId(1, 1), now=2.0)
        orderer.add_sequencing_decision(BlockId(0, 1), now=3.0)
        order = [c.block.block_id for c in orderer.confirmed]
        assert order == [BlockId(1, 1), BlockId(0, 1)]

    def test_missing_block_blocks_later_decisions(self):
        orderer = DQBFTOrderer(num_instances=2)
        orderer.add_sequencing_decision(BlockId(0, 1), now=1.0)
        orderer.add_sequencing_decision(BlockId(1, 1), now=1.0)
        orderer.add_partially_committed(block(1, 1, 0), now=2.0)
        # Decision order says (0,1) first; its block is missing so nothing flows.
        assert orderer.confirmed == ()
        newly = orderer.add_partially_committed(block(0, 1, 0), now=3.0)
        assert len(newly) == 2

    def test_duplicate_decision_ignored(self):
        orderer = DQBFTOrderer(num_instances=1)
        orderer.add_partially_committed(block(0, 1, 0), now=1.0)
        orderer.add_sequencing_decision(BlockId(0, 1), now=2.0)
        assert orderer.add_sequencing_decision(BlockId(0, 1), now=3.0) == []

    def test_undecided_blocks(self):
        orderer = DQBFTOrderer(num_instances=2)
        orderer.add_partially_committed(block(0, 1, 0), now=1.0)
        assert [b.block_id for b in orderer.undecided_blocks()] == [BlockId(0, 1)]


# ----------------------------------------------- retaining vs non-retaining
@st.composite
def deliveries(draw, max_instances=4, max_rounds=6):
    """Blocks with non-monotone ranks, delivered in random order (so rounds
    arrive out of order), some of them twice (as a fresh copy)."""
    m = draw(st.integers(min_value=1, max_value=max_instances))
    blocks = []
    for instance in range(m):
        for round_ in range(1, draw(st.integers(min_value=0, max_value=max_rounds)) + 1):
            rank = draw(st.integers(min_value=0, max_value=12))
            blocks.append(Block(instance=instance, round=round_, rank=rank, tx_count_hint=1))
    duplicates = draw(st.lists(st.sampled_from(blocks), max_size=len(blocks))) if blocks else []
    return m, draw(st.permutations(blocks + [replace(b) for b in duplicates]))


@st.composite
def sequencing_schedules(draw):
    """DQBFT input: deliveries interleaved with sequencing decisions, some
    duplicated, some for blocks that are never delivered."""
    m, blocks = draw(deliveries())
    ids = sorted({b.block_id for b in blocks}, key=lambda i: (i.instance, i.round))
    decided = draw(st.lists(st.sampled_from(ids + [BlockId(m - 1, 99)]), max_size=2 * len(ids) + 1))
    return m, draw(st.permutations(blocks + decided))


def _feed(orderer, step, now):
    if isinstance(step, BlockId):
        return orderer.add_sequencing_decision(step, now)
    return orderer.add_partially_committed(step, now)


def _run_both_modes(make, steps, each_step=None):
    """Feed ``steps`` to a retaining and a non-retaining orderer in lockstep;
    both must confirm the same fingerprints at every step."""
    retaining, compact = make(True), make(False)
    for index, step in enumerate(steps):
        now = float(index)
        want = retaining.fingerprints_of(_feed(retaining, step, now))
        got = compact.fingerprints_of(_feed(compact, step, now))
        assert list(got) == want
        if each_step is not None:
            each_step(retaining, compact, step, now, want)
    assert compact.confirmed_fingerprints() == retaining.confirmed_fingerprints()
    assert compact.pending_count == retaining.pending_count
    assert compact.confirmed_count == retaining.confirmed_count
    assert held_blocks(compact) == []
    with pytest.raises(RuntimeError, match="confirmed"):
        compact.confirmed
    return retaining, compact


class TestRetainingModesAgree:
    """``retain_blocks=False`` changes what an orderer holds, never what it
    confirms: every orderer, fed the same input in both modes, confirms the
    same fingerprints step by step, and the non-retaining one holds no
    ``Block`` or ``ConfirmedBlock`` — pending or confirmed."""

    @given(deliveries())
    @settings(max_examples=100, deadline=None)
    def test_dynamic(self, schedule):
        m, blocks = schedule
        reference = ScanDrainDynamicOrderer(m)

        def against_reference(retaining, compact, blk, now, confirmed):
            newly = reference.add_partially_committed(blk, now)
            assert reference.fingerprints_of(newly) == confirmed
            assert compact.current_bar() == retaining.current_bar() == reference._compute_bar()

        retaining, compact = _run_both_modes(
            lambda retain: DynamicOrderer(m, retain_blocks=retain), blocks, against_reference
        )
        assert retaining.confirmed_fingerprints() == reference.confirmed_fingerprints()
        assert compact.pending_count == reference.pending_count
        with pytest.raises(RuntimeError, match="unconfirmed_blocks"):
            compact.unconfirmed_blocks()

    @given(deliveries())
    @settings(max_examples=100, deadline=None)
    def test_predetermined(self, schedule):
        m, blocks = schedule
        _run_both_modes(lambda retain: PredeterminedOrderer(m, retain_blocks=retain), blocks)

    @given(sequencing_schedules())
    @settings(max_examples=100, deadline=None)
    def test_dqbft(self, schedule):
        m, steps = schedule
        delivered, decided = {}, set()

        def undecided_in_delivery_order(retaining, compact, step, now, confirmed):
            if isinstance(step, BlockId):
                decided.add(step)
            else:
                delivered.setdefault(step.block_id, None)
            want = [block_id for block_id in delivered if block_id not in decided]
            assert [b.block_id for b in retaining.undecided_blocks()] == want

        _, compact = _run_both_modes(
            lambda retain: DQBFTOrderer(m, retain_blocks=retain), steps,
            undecided_in_delivery_order,
        )
        with pytest.raises(RuntimeError, match="undecided_blocks"):
            compact.undecided_blocks()
