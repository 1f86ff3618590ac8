"""Checkpointing under adversarial silence.

Unit coverage for the checkpoint vote count (:class:`EpochPacemaker`) and
:func:`~repro.consensus.checkpoint.build_checkpoint`, plus the end-to-end
story the adversary subsystem enables: suppressed checkpoint messages
stall the epoch (no stable checkpoint → no advancement → leaders that hit
``maxRank`` stop proposing), and the system recovers through the
view-change path, which re-broadcasts checkpoints the way PBFT view-change
messages carry them.
"""

import pytest

from repro.adversary import AdversarySpec, Silence
from repro.consensus.checkpoint import build_checkpoint
from repro.bench.config import ExperimentCell
from repro.core.epoch import EpochConfig, EpochPacemaker
from repro.protocols.registry import build_system
from repro.sim.faults import FaultConfig


QUORUM = 3  # n=4


def make_pacemaker(length=4):
    return EpochPacemaker(EpochConfig(length=length, num_instances=1), QUORUM)


def advance(pacemaker, now=1.0):
    """Complete and checkpoint the current epoch, then advance past it."""
    epoch = pacemaker.current_epoch
    pacemaker.observe_commit(0, pacemaker.max_rank(), now)
    for replica in range(QUORUM):
        pacemaker.observe_checkpoint(epoch, replica)
    assert pacemaker.try_advance(now)


class TestCheckpointVotes:
    """The one checkpoint count, :class:`EpochPacemaker`'s."""

    def test_below_quorum_is_not_stable(self):
        pacemaker = make_pacemaker()
        assert not pacemaker.observe_checkpoint(0, 0)
        assert pacemaker.votes(0) == 1

    def test_stable_from_the_quorum_vote_on(self):
        pacemaker = make_pacemaker()
        assert not pacemaker.observe_checkpoint(0, 0)
        assert not pacemaker.observe_checkpoint(0, 1)
        assert pacemaker.observe_checkpoint(0, 2)  # the quorum vote
        assert pacemaker.observe_checkpoint(0, 3)  # and every later one
        assert pacemaker.votes(0) == 4

    def test_votes_are_idempotent_per_sender(self):
        """Re-broadcast checkpoints (the view-change recovery path) must
        not double-count a sender."""
        pacemaker = make_pacemaker()
        pacemaker.observe_checkpoint(0, 0)
        assert not pacemaker.observe_checkpoint(0, 0)
        assert pacemaker.votes(0) == 1

    def test_epochs_are_tracked_independently(self):
        pacemaker = make_pacemaker()
        for replica in range(QUORUM):
            pacemaker.observe_checkpoint(0, replica)
        assert pacemaker.votes(1) == 0
        assert not pacemaker.observe_checkpoint(1, 0)

    def test_one_vote_short_does_not_advance(self):
        pacemaker = make_pacemaker()
        pacemaker.observe_commit(0, pacemaker.max_rank(), 1.0)
        for replica in range(QUORUM - 1):
            pacemaker.observe_checkpoint(0, replica)
        assert not pacemaker.try_advance(1.0)

    def test_settled_epochs_are_pruned_and_stable(self):
        pacemaker = make_pacemaker()
        advance(pacemaker)
        assert pacemaker.votes(0) == QUORUM  # the previous epoch is kept
        advance(pacemaker)
        assert pacemaker.current_epoch == 2
        assert 0 not in pacemaker._states
        assert pacemaker.observe_checkpoint(0, 3)  # settled: stable, not recorded
        assert 0 not in pacemaker._states and pacemaker.votes(0) == QUORUM
        assert pacemaker.votes(1) == QUORUM

    def test_state_digest_depends_on_progress(self):
        a = build_checkpoint(0, epoch=0, confirmed_count=5)
        b = build_checkpoint(0, epoch=0, confirmed_count=6)
        c = build_checkpoint(1, epoch=0, confirmed_count=5)
        assert a.state_digest != b.state_digest
        assert a.state_digest == c.state_digest


@pytest.mark.scenario
class TestCheckpointQuorumUnderSilence:
    """Epoch checkpoints are suppressed by two adversarial replicas: the
    quorum stalls, proposing wedges at the epoch boundary, and the system
    recovers through view changes once the silence window lifts."""

    SILENCE_UNTIL = 12.0

    @pytest.fixture(scope="class")
    def run(self):
        adversary = AdversarySpec(
            attacks=(Silence(replicas=(2, 3), kinds=("checkpoint",)),)
        )
        cell = ExperimentCell(
            protocol="ladon-pbft",
            n=4,
            batch_size=128,
            total_block_rate=16.0,
            environment="lan",
            duration=30.0,
            seed=2,
            epoch_length=8,
            propose_timeout=2.0,
            view_change_timeout=4.0,
        )
        system = build_system(cell, faults=FaultConfig(adversary=adversary))

        def lift_silence():
            # attacks last to the end of the run: the silence lifts when the
            # conspirators' interceptors come off their outbound hook
            for replica in (2, 3):
                system.replicas[replica].interceptor = None

        system.runtime.schedule_at(self.SILENCE_UNTIL, lift_silence)
        return system, system.run()

    def test_epoch_stalls_until_the_silence_lifts(self, run):
        _, result = run
        assert result.epoch_advancements, "the epoch must eventually advance"
        first_advance = result.epoch_advancements[0][0]
        assert first_advance >= self.SILENCE_UNTIL

    def test_recovery_goes_through_view_changes(self, run):
        _, result = run
        first_advance = result.epoch_advancements[0][0]
        assert result.view_change_times, "recovery requires view changes"
        assert result.view_change_times[0][0] < first_advance

    def test_throughput_resumes_after_recovery(self, run):
        _, result = run
        first_advance = result.epoch_advancements[0][0]
        stalled = [
            c for c in result.confirmed if 5.0 <= c.confirmed_at < self.SILENCE_UNTIL
        ]
        resumed = [c for c in result.confirmed if c.confirmed_at >= first_advance]
        assert stalled == []  # wedged at the epoch boundary during the window
        assert len(resumed) > 50  # and running freely afterwards

    def test_honest_replicas_reach_later_epochs(self, run):
        system, result = run
        assert system.replicas[0].current_epoch() >= 2
        assert result.audit.safety_ok
        assert result.audit.live

    def test_checkpoint_quorum_eventually_stable_everywhere(self, run):
        system, _ = run
        for replica in system.replicas.values():
            assert replica.pacemaker.votes(0) >= replica.quorum
