"""Tests for the epoch pacemaker and checkpoints."""

import pytest

from repro.core.epoch import EpochConfig, EpochPacemaker


class TestEpochConfig:
    def test_rank_ranges_follow_paper(self):
        config = EpochConfig(length=64, num_instances=4)
        assert config.min_rank(0) == 0
        assert config.max_rank(0) == 63
        assert config.min_rank(1) == 64
        assert config.max_rank(2) == 191

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            EpochConfig(length=0, num_instances=1)
        with pytest.raises(ValueError):
            EpochConfig(length=4, num_instances=0)


class TestEpochPacemaker:
    def _pacemaker(self, m=2, length=4, quorum=3):
        return EpochPacemaker(EpochConfig(length=length, num_instances=m), quorum=quorum)

    def test_epoch_not_complete_until_all_instances_reach_max_rank(self):
        pacemaker = self._pacemaker()
        pacemaker.observe_commit(instance=0, rank=3, now=1.0)
        assert not pacemaker.epoch_complete()
        pacemaker.observe_commit(instance=1, rank=3, now=2.0)
        assert pacemaker.epoch_complete()

    def test_lower_ranks_do_not_complete_epoch(self):
        pacemaker = self._pacemaker()
        pacemaker.observe_commit(instance=0, rank=2, now=1.0)
        pacemaker.observe_commit(instance=1, rank=2, now=1.0)
        assert not pacemaker.epoch_complete()

    def test_advance_requires_completion_and_checkpoint(self):
        pacemaker = self._pacemaker()
        pacemaker.observe_commit(instance=0, rank=3, now=1.0)
        pacemaker.observe_commit(instance=1, rank=3, now=1.0)
        assert not pacemaker.try_advance(now=2.0)  # no stable checkpoint yet
        for replica in range(3):
            pacemaker.observe_checkpoint(0, replica)
        assert pacemaker.try_advance(now=3.0)
        assert pacemaker.current_epoch == 1
        assert pacemaker.min_rank() == 4

    def test_checkpoint_is_stable_from_the_quorum_vote_on(self):
        pacemaker = self._pacemaker()
        assert not pacemaker.observe_checkpoint(0, 0)
        assert not pacemaker.observe_checkpoint(0, 1)
        assert pacemaker.observe_checkpoint(0, 2)
        assert pacemaker.observe_checkpoint(0, 3)

    def test_advancement_log(self):
        pacemaker = self._pacemaker()
        pacemaker.observe_commit(0, 3, 1.0)
        pacemaker.observe_commit(1, 3, 1.0)
        for replica in range(3):
            pacemaker.observe_checkpoint(0, replica)
        pacemaker.try_advance(now=5.0)
        assert pacemaker.advancement_log == [(5.0, 1)]
