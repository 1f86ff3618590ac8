"""Checkpointing under adversarial silence.

Unit coverage for :mod:`repro.consensus.checkpoint` plus the end-to-end
story the adversary subsystem enables: suppressed checkpoint messages
stall the epoch (no stable checkpoint → no advancement → leaders that hit
``maxRank`` stop proposing), and the system recovers through the
view-change path, which re-broadcasts checkpoints the way PBFT view-change
messages carry them.
"""

import pytest

from repro.adversary import AdversarySpec, Silence
from repro.consensus.checkpoint import CheckpointManager
from repro.bench.config import ExperimentCell
from repro.protocols.registry import build_system
from repro.sim.faults import FaultConfig


QUORUM = 3  # n=4


def make_manager(replica_id=0):
    return CheckpointManager(replica_id, QUORUM)


class TestCheckpointManager:
    def test_below_quorum_is_not_stable(self):
        manager = make_manager()
        message = manager.build_checkpoint(epoch=0, confirmed_count=10)
        assert not manager.on_checkpoint(message)
        assert not manager.is_stable(0)
        assert manager.votes(0) == 1

    def test_becomes_stable_exactly_once_at_quorum(self):
        manager = make_manager()
        base = manager.build_checkpoint(epoch=0, confirmed_count=10)
        assert not manager.on_checkpoint(base)
        from dataclasses import replace

        assert not manager.on_checkpoint(replace(base, sender=1))
        assert manager.on_checkpoint(replace(base, sender=2))  # True exactly here
        assert manager.is_stable(0)
        # further votes count but never re-trigger stability
        assert not manager.on_checkpoint(replace(base, sender=3))
        assert manager.votes(0) == 4

    def test_votes_are_idempotent_per_sender(self):
        """Re-broadcast checkpoints (the view-change recovery path) must
        not double-count a sender."""
        manager = make_manager()
        message = manager.build_checkpoint(epoch=0, confirmed_count=10)
        manager.on_checkpoint(message)
        manager.on_checkpoint(message)
        assert manager.votes(0) == 1
        assert not manager.is_stable(0)

    def test_epochs_are_tracked_independently(self):
        manager = make_manager()
        manager.on_checkpoint(manager.build_checkpoint(epoch=0, confirmed_count=5))
        assert manager.votes(1) == 0
        assert not manager.is_stable(1)

    def test_state_digest_depends_on_progress(self):
        manager = make_manager()
        a = manager.build_checkpoint(epoch=0, confirmed_count=5)
        b = make_manager().build_checkpoint(epoch=0, confirmed_count=6)
        c = make_manager().build_checkpoint(epoch=0, confirmed_count=5)
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
            assert replica.checkpoints.is_stable(0)
