"""Unit tests for the PBFT instance state machine (vanilla)."""

import pytest

from repro.consensus.base import CollectingContext, InstanceConfig
from repro.consensus.messages import Commit, NewView, PrePrepare, Prepare, ViewChange
from repro.consensus.pbft import PBFTInstance
from repro.workload.transactions import Batch


N = 4
QUORUM = 3


def make_instance(replica_id=0, instance_id=0, propose_timeout=None):
    config = InstanceConfig(
        instance_id=instance_id, replica_id=replica_id, n=N, propose_timeout=propose_timeout
    )
    context = CollectingContext()
    return PBFTInstance(config, context), context


def drive_round(leader, leader_ctx, backups, round=1, tx_count=5):
    """Drive one full PBFT round across a leader and backups sharing no network.

    Messages are relayed by hand so the test controls ordering precisely.
    Returns the pre-prepare message.
    """
    batch = Batch.synthetic(tx_count, submitted_at=0.0)
    pre_prepare = leader.propose(batch, now=1.0)
    assert pre_prepare is not None
    all_nodes = [(leader, leader_ctx)] + backups
    # Deliver the pre-prepare everywhere (including the leader's own copy).
    for node, _ in all_nodes:
        node.on_message(pre_prepare.sender, pre_prepare)
    # Gather prepares and deliver all-to-all.
    prepares = []
    for node, ctx in all_nodes:
        prepares.extend(m for m in ctx.multicasts if isinstance(m, Prepare) and m.round == round)
    for prepare in prepares:
        for node, _ in all_nodes:
            node.on_message(prepare.sender, prepare)
    commits = []
    for node, ctx in all_nodes:
        commits.extend(m for m in ctx.multicasts if isinstance(m, Commit) and m.round == round)
    for commit in commits:
        for node, _ in all_nodes:
            node.on_message(commit.sender, commit)
    return pre_prepare


class TestProposal:
    def test_only_leader_proposes(self):
        instance, _ = make_instance(replica_id=1, instance_id=0)
        assert not instance.ready_to_propose()
        assert instance.propose(Batch.synthetic(1, 0.0), now=0.0) is None

    def test_leader_of_instance_is_replica_with_same_id(self):
        instance, _ = make_instance(replica_id=0, instance_id=0)
        assert instance.is_leader

    def test_leader_rotates_with_view(self):
        config = InstanceConfig(instance_id=2, replica_id=0, n=4)
        assert config.leader_for_view(0) == 2
        assert config.leader_for_view(1) == 3
        assert config.leader_for_view(2) == 0

    def test_propose_multicasts_pre_prepare(self):
        instance, context = make_instance()
        message = instance.propose(Batch.synthetic(10, 0.0), now=2.0)
        assert isinstance(message, PrePrepare)
        assert any(isinstance(m, PrePrepare) for m in context.multicasts)
        assert message.tx_count == 10
        assert message.proposed_at == 2.0

    def test_one_outstanding_round_at_a_time(self):
        instance, _ = make_instance()
        instance.propose(Batch.synthetic(1, 0.0), now=0.0)
        assert not instance.ready_to_propose()
        assert instance.propose(Batch.synthetic(1, 0.0), now=1.0) is None

    def test_pre_prepare_size_includes_batch(self):
        instance, _ = make_instance()
        small = instance._build_pre_prepare(1, Batch.synthetic(1, 0.0), 0.0)
        large = instance._build_pre_prepare(2, Batch.synthetic(1000, 0.0), 0.0)
        assert large.size_bytes > small.size_bytes + 400_000


class TestNormalCase:
    def test_full_round_commits_at_every_replica(self):
        leader, leader_ctx = make_instance(replica_id=0)
        backups = [make_instance(replica_id=r) for r in range(1, N)]
        drive_round(leader, leader_ctx, backups, tx_count=7)
        for node, ctx in [(leader, leader_ctx)] + backups:
            assert len(ctx.delivered) == 1
            block = ctx.delivered[0]
            assert block.tx_count == 7
            assert block.round == 1
            assert block.instance == 0

    def test_committed_blocks_identical_across_replicas(self):
        leader, leader_ctx = make_instance(replica_id=0)
        backups = [make_instance(replica_id=r) for r in range(1, N)]
        drive_round(leader, leader_ctx, backups)
        digests = {ctx.delivered[0].payload_digest for _, ctx in [(leader, leader_ctx)] + backups}
        assert len(digests) == 1

    def test_leader_can_propose_next_round_after_commit(self):
        leader, leader_ctx = make_instance(replica_id=0)
        backups = [make_instance(replica_id=r) for r in range(1, N)]
        drive_round(leader, leader_ctx, backups, round=1)
        assert leader.ready_to_propose()
        second = leader.propose(Batch.synthetic(1, 0.0), now=5.0)
        assert second.round == 2

    def test_commit_requires_quorum_of_commits(self):
        instance, context = make_instance(replica_id=1)
        pre_prepare = PrePrepare(
            sender=0, instance=0, view=0, round=1, digest="d", tx_count=1, rank=1
        )
        instance.on_message(0, pre_prepare)
        for sender in range(QUORUM):
            instance.on_message(sender, Prepare(sender=sender, instance=0, view=0, round=1, digest="d", rank=1))
        # Only 2 commits: not enough.
        for sender in range(2):
            instance.on_message(sender, Commit(sender=sender, instance=0, view=0, round=1, digest="d", rank=1))
        assert context.delivered == []
        instance.on_message(2, Commit(sender=2, instance=0, view=0, round=1, digest="d", rank=1))
        assert len(context.delivered) == 1

    def test_quorum_before_pre_prepare_still_commits_once_pre_prepare_arrives(self):
        instance, context = make_instance(replica_id=1)
        for sender in range(QUORUM):
            instance.on_message(sender, Prepare(sender=sender, instance=0, view=0, round=1, digest="d", rank=1))
            instance.on_message(sender, Commit(sender=sender, instance=0, view=0, round=1, digest="d", rank=1))
        assert context.delivered == []
        instance.on_message(
            0, PrePrepare(sender=0, instance=0, view=0, round=1, digest="d", tx_count=1, rank=1)
        )
        assert len(context.delivered) == 1

    def test_duplicate_commits_do_not_double_deliver(self):
        leader, leader_ctx = make_instance(replica_id=0)
        backups = [make_instance(replica_id=r) for r in range(1, N)]
        drive_round(leader, leader_ctx, backups)
        # Replay a commit message.
        commit = next(m for m in leader_ctx.multicasts if isinstance(m, Commit))
        leader.on_message(commit.sender, commit)
        assert len(leader_ctx.delivered) == 1


class TestValidation:
    def test_pre_prepare_from_non_leader_rejected(self):
        instance, context = make_instance(replica_id=1)
        bogus = PrePrepare(sender=2, instance=0, view=0, round=1, digest="d", tx_count=1, rank=1)
        instance.on_message(2, bogus)
        assert not any(isinstance(m, Prepare) for m in context.multicasts)

    def test_pre_prepare_from_wrong_view_rejected(self):
        instance, context = make_instance(replica_id=1)
        bogus = PrePrepare(sender=0, instance=0, view=3, round=1, digest="d", tx_count=1, rank=1)
        instance.on_message(0, bogus)
        assert not any(isinstance(m, Prepare) for m in context.multicasts)

    def test_conflicting_pre_prepare_for_same_round_rejected(self):
        instance, context = make_instance(replica_id=1)
        instance.on_message(
            0, PrePrepare(sender=0, instance=0, view=0, round=1, digest="d1", tx_count=1, rank=1)
        )
        instance.on_message(
            0, PrePrepare(sender=0, instance=0, view=0, round=1, digest="d2", tx_count=1, rank=1)
        )
        prepares = [m for m in context.multicasts if isinstance(m, Prepare)]
        assert len(prepares) == 1
        assert prepares[0].digest == "d1"

    def test_prepare_from_wrong_view_ignored(self):
        instance, _ = make_instance(replica_id=1)
        instance.on_message(0, Prepare(sender=0, instance=0, view=9, round=1, digest="d", rank=1))
        assert instance.prepare_votes.count((9, 1, "d")) == 0


class TestViewChange:
    def test_round_timeout_triggers_view_change(self):
        # Replica 2 is not the next leader (replica 1 is), so the view-change
        # message must actually be sent to replica 1.
        instance, context = make_instance(replica_id=2)
        instance.on_message(
            0, PrePrepare(sender=0, instance=0, view=0, round=1, digest="d", tx_count=1, rank=1)
        )
        timer_name = instance._round_timer_name(1)
        assert timer_name in context.timers
        context.fire_timer(timer_name)
        assert instance.view_change_in_progress
        view_changes = [
            (dest, m) for dest, m in context.sent if isinstance(m, ViewChange)
        ]
        assert view_changes and view_changes[0][0] == instance.config.leader_for_view(1)

    def test_new_leader_installs_view_after_quorum(self):
        # Instance 0, view 1 leader is replica 1.
        new_leader, context = make_instance(replica_id=1)
        for sender in range(QUORUM):
            new_leader.on_message(
                sender,
                ViewChange(sender=sender, instance=0, view=1, round=0, last_committed_round=0),
            )
        new_views = [m for m in context.multicasts if isinstance(m, NewView)]
        assert len(new_views) == 1
        assert new_views[0].view == 1

    def test_backup_adopts_new_view(self):
        instance, _ = make_instance(replica_id=2)
        instance.on_message(1, NewView(sender=1, instance=0, view=1, round=1, resume_round=1))
        assert instance.view == 1
        assert not instance.view_change_in_progress

    def test_new_view_from_wrong_leader_ignored(self):
        instance, _ = make_instance(replica_id=2)
        instance.on_message(3, NewView(sender=3, instance=0, view=1, round=1, resume_round=1))
        assert instance.view == 0

    def test_propose_timeout_only_when_configured(self):
        instance, context = make_instance(replica_id=1, propose_timeout=None)
        instance.start()
        assert f"pbft-propose:{instance.instance_id}" not in context.timers
        instance_with, context_with = make_instance(replica_id=1, propose_timeout=5.0)
        instance_with.start()
        assert f"pbft-propose:{instance_with.instance_id}" in context_with.timers

    def test_view_installed_hook_called(self):
        instance, _ = make_instance(replica_id=2)
        calls = []
        instance.on_view_installed = calls.append
        instance.on_message(1, NewView(sender=1, instance=0, view=1, round=1, resume_round=1))
        assert calls == [1]

    def test_new_leader_becomes_proposer_after_view_change(self):
        instance, _ = make_instance(replica_id=1)
        assert not instance.is_leader
        instance.on_message(1, NewView(sender=1, instance=0, view=1, round=1, resume_round=1))
        assert instance.is_leader
        assert instance.ready_to_propose()


class TestCryptoAccounting:
    def test_sign_and_verify_ops_recorded(self):
        leader, leader_ctx = make_instance(replica_id=0)
        backups = [make_instance(replica_id=r) for r in range(1, N)]
        drive_round(leader, leader_ctx, backups)
        assert leader_ctx.crypto_ops.get("sign", 0) >= 2
        assert leader_ctx.crypto_ops.get("verify", 0) >= 2 * QUORUM - 1


class TestNewViewReproposal:
    """A new leader re-proposes rounds prepared (but not committed) in the
    old view with their original digest, so a replica that already committed
    one of them can never observe a conflicting batch at the same round."""

    def _prepared_new_leader(self):
        """Replica 1 (leader of view 1) with round 1 prepared in view 0."""
        instance, context = make_instance(replica_id=1, instance_id=0)
        pre = PrePrepare(
            sender=0, instance=0, view=0, round=1, digest="original",
            tx_count=7, rank=1, batch_submitted_at=0.5,
        )
        instance.on_message(0, pre)
        for sender in (0, 2, 3):
            instance.on_message(
                sender, Prepare(sender=sender, instance=0, view=0, round=1,
                                digest="original", rank=1)
            )
        assert instance.log[1].prepare_quorum
        return instance, context

    def test_new_leader_reproposes_prepared_round_with_same_digest(self):
        instance, context = self._prepared_new_leader()
        instance.on_message(
            1, NewView(sender=1, instance=0, view=1, round=1,
                       view_change_count=QUORUM, resume_round=1)
        )
        reproposals = [m for m in context.multicasts
                       if isinstance(m, PrePrepare) and m.reproposal]
        assert len(reproposals) == 1
        message = reproposals[0]
        assert message.digest == "original"
        assert message.view == 1 and message.round == 1
        assert message.tx_count == 7 and message.rank == 1
        # Self-delivery recreates the leader's log entry; the fresh-proposal
        # cursor then skips the in-flight re-proposed round.
        instance.on_message(1, message)
        assert not instance.ready_to_propose()  # round 1 must commit first
        assert instance.next_round == 2

    def test_backup_accepts_and_reprepares_the_reproposal(self):
        leader, leader_ctx = self._prepared_new_leader()
        leader.on_message(
            1, NewView(sender=1, instance=0, view=1, round=1,
                       view_change_count=QUORUM, resume_round=1)
        )
        reproposal = next(m for m in leader_ctx.multicasts
                          if isinstance(m, PrePrepare) and m.reproposal)
        backup, backup_ctx = make_instance(replica_id=2, instance_id=0)
        backup.on_message(
            1, NewView(sender=1, instance=0, view=1, round=1,
                       view_change_count=QUORUM, resume_round=1)
        )
        backup.on_message(1, reproposal)
        prepares = [m for m in backup_ctx.multicasts if isinstance(m, Prepare)]
        assert prepares and prepares[-1].digest == "original"

    def test_prepared_round_past_a_hole_is_still_reproposed(self):
        # the new leader missed round 1 but has round 2 prepared: round 2
        # must reappear with its original digest (someone may have committed
        # it), while round 1 is left for the pacing loop to propose fresh
        instance, context = make_instance(replica_id=1, instance_id=0)
        pre = PrePrepare(sender=0, instance=0, view=0, round=2, digest="later",
                         tx_count=4, rank=2)
        instance.on_message(0, pre)
        for sender in (0, 2, 3):
            instance.on_message(
                sender, Prepare(sender=sender, instance=0, view=0, round=2,
                                digest="later", rank=2)
            )
        instance.on_message(
            1, NewView(sender=1, instance=0, view=1, round=1,
                       view_change_count=QUORUM, resume_round=1)
        )
        reproposals = [m for m in context.multicasts
                       if isinstance(m, PrePrepare) and m.reproposal]
        assert [m.round for m in reproposals] == [2]
        assert reproposals[0].digest == "later"
        # round 1 is the hole: the pacing cursor proposes it fresh
        assert instance.next_round == 1
        assert instance.ready_to_propose()

    def test_unprepared_rounds_are_not_reproposed(self):
        instance, context = make_instance(replica_id=1, instance_id=0)
        pre = PrePrepare(sender=0, instance=0, view=0, round=1, digest="d", tx_count=3)
        instance.on_message(0, pre)  # pre-prepared only: no prepare quorum
        instance.on_message(
            1, NewView(sender=1, instance=0, view=1, round=1,
                       view_change_count=QUORUM, resume_round=1)
        )
        assert not any(isinstance(m, PrePrepare) and m.reproposal
                       for m in context.multicasts)
        # the pacing loop proposes the round fresh instead
        assert instance.next_round == 1


class TestBoundedMemoryGC:
    """Commit-time GC: vote state and log entries are O(active window)."""

    def _commit_round_via_others(self, instance, round, digest):
        """Commit ``round`` at a backup through the others' commit quorum
        while its own prepare quorum stays incomplete (lossy prepares)."""
        pre = PrePrepare(sender=0, instance=0, view=0, round=round,
                         digest=digest, tx_count=2, rank=round)
        instance.on_message(0, pre)
        for sender in (0, 2, 3):
            instance.on_message(sender, Commit(
                sender=sender, instance=0, view=0, round=round,
                digest=digest, rank=round,
            ))

    def _commit_round_fully(self, instance, round, digest):
        pre = PrePrepare(sender=0, instance=0, view=0, round=round,
                         digest=digest, tx_count=2, rank=round)
        instance.on_message(0, pre)
        for sender in (0, 2, 3):
            instance.on_message(sender, Prepare(
                sender=sender, instance=0, view=0, round=round,
                digest=digest, rank=round,
            ))
        for sender in (0, 2, 3):
            instance.on_message(sender, Commit(
                sender=sender, instance=0, view=0, round=round,
                digest=digest, rank=round,
            ))

    def test_committed_rounds_pruned_and_votes_released(self):
        instance, _ = make_instance(replica_id=1)
        for round in (1, 2, 3):
            self._commit_round_fully(instance, round, f"d{round}")
        assert instance.last_committed_round == 3
        assert instance._stable_round == 3
        assert instance.log == {}
        assert instance.prepare_votes.tracked_keys() == 0
        assert instance.commit_votes.tracked_keys() == 0
        assert instance._digest_ids == {}
        assert instance._round_digests == {}

    def test_deferred_commit_send_does_not_wedge_watermark(self):
        """A round committed via the others' commit quorum (own prepare
        quorum incomplete) must not block the GC watermark — and the late
        prepare quorum must still fire the commit send afterwards."""
        instance, ctx = make_instance(replica_id=1)
        self._commit_round_via_others(instance, 1, "d1")
        entry = instance.log[1]
        assert entry.committed and not entry.sent_commit
        # The watermark advanced past the deferred round...
        assert instance._stable_round == 1
        assert 1 in instance._deferred_sends
        # ...and later committed rounds prune normally (no wedge).
        for round in (2, 3):
            self._commit_round_fully(instance, round, f"d{round}")
        assert instance._stable_round == 3
        assert 2 not in instance.log and 3 not in instance.log
        assert 1 in instance.log  # still pinned by the pending commit send

        # The late prepare quorum lands: the commit send fires and the
        # deferred round's state is finally released.
        before = len([m for m in ctx.multicasts
                      if isinstance(m, Commit) and m.round == 1])
        for sender in (0, 2, 3):
            instance.on_message(sender, Prepare(
                sender=sender, instance=0, view=0, round=1,
                digest="d1", rank=1,
            ))
        late_commits = [m for m in ctx.multicasts
                        if isinstance(m, Commit) and m.round == 1]
        assert len(late_commits) == before + 1  # the deferred send fired
        assert 1 not in instance._deferred_sends
        assert 1 not in instance.log
        assert instance.prepare_votes.tracked_keys() == 0
        assert instance._digest_ids == {}

    def test_view_change_finalizes_deferred_sends(self):
        """After a view change the missing prepares are undeliverable, so a
        deferred round's state is released instead of pinned forever."""
        instance, _ = make_instance(replica_id=1)
        self._commit_round_via_others(instance, 1, "d1")
        assert 1 in instance._deferred_sends
        new_view = NewView(sender=1, instance=0, view=1, round=2,
                           view_change_count=QUORUM, resume_round=2)
        instance.on_message(1, new_view)
        assert instance.view == 1
        assert instance._deferred_sends == set()
        assert 1 not in instance.log

    def test_forged_digest_vote_state_released_with_round(self):
        """Sub-quorum votes for a forged (equivocated) digest are released
        when their round's GC runs — a pre-quorum vote flood cannot grow
        memory round over round."""
        instance, _ = make_instance(replica_id=1)
        for round in (1, 2, 3):
            # Two forged-world votes arrive alongside the honest flow.
            for sender in (2, 3):
                instance.on_message(sender, Prepare(
                    sender=sender, instance=0, view=0, round=round,
                    digest=f"forged{round}", rank=round,
                ))
            self._commit_round_fully(instance, round, f"d{round}")
        assert instance._digest_ids == {}
        assert instance._round_digests == {}
        assert instance.prepare_votes.tracked_keys() == 0
        assert instance.commit_votes.tracked_keys() == 0


class TestLazyPerInstanceState:
    """Each replica hosts every instance, so state that only a view change,
    an out-of-order commit or a deferred commit send needs is created when
    that first happens; an honest contiguous run never allocates it."""

    LAZY = ("view_change_votes", "_view_change_high", "_committed_above", "_deferred_sends")

    def _own(self, instance):
        return sorted(name for name in self.LAZY if name in vars(instance))

    def test_contiguous_commits_allocate_none_of_it(self):
        instance, _ = make_instance(replica_id=1)
        assert self._own(instance) == []
        assert "_handlers" not in vars(instance)  # the table is per class
        for round in (1, 2, 3):
            TestBoundedMemoryGC()._commit_round_fully(instance, round, f"d{round}")
        assert instance._stable_round == 3 and instance.log == {}
        assert self._own(instance) == []
        assert instance._committed_above == set() == instance._deferred_sends

    def test_view_installs_on_an_instance_that_never_touched_view_change_state(self):
        """The backup's side of a view change reads the (absent) vote state
        only to clean it up; the install is the same as it ever was."""
        instance, context = make_instance(replica_id=2)
        instance.on_message(
            0, PrePrepare(sender=0, instance=0, view=0, round=1, digest="d", tx_count=1, rank=1)
        )
        installed = []
        instance.on_view_installed = installed.append
        instance.on_message(
            1, NewView(sender=1, instance=0, view=1, round=1, view_change_count=QUORUM, resume_round=1)
        )
        assert installed == [1]
        assert (instance.view, instance.leader, instance.view_change_in_progress) == (1, 1, False)
        assert (instance.next_round, instance.view_resume_round) == (1, 1)
        assert instance.log == {}  # the uncommitted in-flight round is dropped
        assert instance._round_timer_name(1) not in context.timers
        assert self._own(instance) == []

    def test_view_installation_reaches_the_host_through_the_context(self):
        class Host(CollectingContext):
            def on_view_installed(self, view):
                self.installed = view

        instance = PBFTInstance(InstanceConfig(instance_id=0, replica_id=2, n=N), Host())
        instance.on_message(1, NewView(sender=1, instance=0, view=1, round=1, resume_round=1))
        assert instance.context.installed == 1

    def test_new_leader_creates_then_clears_its_vote_state(self):
        new_leader, context = make_instance(replica_id=1)
        new_leader.on_message(
            0, ViewChange(sender=0, instance=0, view=1, round=0, last_committed_round=4)
        )
        assert self._own(new_leader) == ["_view_change_high", "view_change_votes"]
        assert new_leader._view_change_high == {("view-change", 1): 4}
        for sender in (2, 3):
            new_leader.on_message(
                sender, ViewChange(sender=sender, instance=0, view=1, round=0, last_committed_round=0)
            )
        (new_view,) = [m for m in context.multicasts if isinstance(m, NewView)]
        assert (new_view.view_change_count, new_view.resume_round) == (QUORUM, 5)
        new_leader.on_message(1, new_view)
        assert new_leader.view == 1
        assert new_leader._view_change_high == {}
        assert new_leader.view_change_votes.tracked_keys() == 0

    def test_out_of_order_commit_parks_then_folds(self):
        instance, _ = make_instance(replica_id=1)
        gc_tests = TestBoundedMemoryGC()
        gc_tests._commit_round_fully(instance, 2, "d2")
        assert instance._stable_round == 0 and instance._committed_above == {2}
        assert 2 in instance.log  # not behind the watermark yet
        gc_tests._commit_round_fully(instance, 1, "d1")
        assert instance._stable_round == 2 and instance._committed_above == set()
        assert instance.log == {}
        assert instance.prepare_votes.tracked_keys() == 0
