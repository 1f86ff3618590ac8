"""Tests for quorum thresholds and quorum tracking."""

import dataclasses

import pytest

from repro.consensus.base import InstanceConfig
from repro.consensus.quorum import QuorumTracker, fault_threshold, quorum_threshold


class TestThresholds:
    @pytest.mark.parametrize(
        "n,f,quorum", [(4, 1, 3), (7, 2, 5), (10, 3, 7), (16, 5, 11), (128, 42, 85)]
    )
    def test_thresholds(self, n, f, quorum):
        assert fault_threshold(n) == f
        assert quorum_threshold(n) == quorum

    def test_thresholds_reject_nonpositive(self):
        with pytest.raises(ValueError):
            quorum_threshold(0)
        with pytest.raises(ValueError):
            fault_threshold(-1)

    def test_two_quorums_share_an_honest_replica(self):
        # holds for n = 3f+1; other n get the 2f+1 of the largest 3f+1 below
        for f in range(0, 86):
            n = 3 * f + 1
            assert fault_threshold(n) == f
            assert 2 * quorum_threshold(n) - n >= f + 1, n

    def test_honest_replicas_alone_form_a_quorum(self):
        for n in range(1, 257):
            assert quorum_threshold(n) <= n - fault_threshold(n), n

    def test_instance_config_quorum_is_the_threshold_computed_once(self):
        # Every replica hosts every instance, so a config exists n² times:
        # the quorum is a stored field, derived at construction only.
        for n in range(4, 201):
            assert InstanceConfig(instance_id=0, replica_id=0, n=n).quorum == quorum_threshold(n)
        quorum = {f.name: f for f in dataclasses.fields(InstanceConfig)}["quorum"]
        assert not quorum.init
        assert not isinstance(vars(InstanceConfig).get("quorum"), property)
        with pytest.raises(TypeError):
            InstanceConfig(instance_id=0, replica_id=0, n=4, quorum=2)


class TestQuorumTracker:
    def test_fires_exactly_once_at_threshold(self):
        tracker = QuorumTracker(threshold=3)
        assert not tracker.add_vote("k", 0)
        assert not tracker.add_vote("k", 1)
        assert tracker.add_vote("k", 2)
        assert not tracker.add_vote("k", 3)

    def test_duplicate_votes_not_counted(self):
        tracker = QuorumTracker(threshold=3)
        tracker.add_vote("k", 0)
        assert not tracker.add_vote("k", 0)
        assert tracker.count("k") == 1

    def test_independent_keys(self):
        tracker = QuorumTracker(threshold=2)
        tracker.add_vote("a", 0)
        assert not tracker.has_quorum("a")
        tracker.add_vote("b", 0)
        assert tracker.add_vote("a", 1)
        assert not tracker.has_quorum("b")

    def test_voters_sorted(self):
        tracker = QuorumTracker(threshold=5)
        for voter in (3, 1, 2):
            tracker.add_vote("k", voter)
        assert tracker.voters("k") == (1, 2, 3)

    def test_clear(self):
        tracker = QuorumTracker(threshold=1)
        tracker.add_vote("k", 0)
        tracker.clear("k")
        assert not tracker.has_quorum("k")
        assert tracker.add_vote("k", 1)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            QuorumTracker(threshold=0)

    def test_threshold_one_fires_on_first_vote(self):
        tracker = QuorumTracker(threshold=1)
        assert tracker.add_vote("k", 5)
        assert tracker.has_quorum("k")

    def test_voters_and_count_readable_after_quorum(self):
        tracker = QuorumTracker(threshold=2)
        tracker.add_vote("k", 4)
        tracker.add_vote("k", 1)
        assert tracker.has_quorum("k")
        assert tracker.voters("k") == (1, 4)
        assert tracker.count("k") == 2

    def test_clearing_unknown_key_is_a_no_op(self):
        tracker = QuorumTracker(threshold=2)
        tracker.add_vote("k", 0)
        tracker.clear("other")
        assert tracker.count("k") == 1
        assert tracker.tracked_keys() == 1

    def test_clearing_one_key_keeps_the_others(self):
        tracker = QuorumTracker(threshold=2)
        for key in ("a", "b", "c"):
            tracker.add_vote(key, 0)
        tracker.add_vote("b", 1)
        tracker.clear("a")
        assert tracker.tracked_keys() == 2
        assert tracker.has_quorum("b")
        assert tracker.add_vote("c", 1)


class ReferenceSetTracker:
    """The seed dict-of-sets tracker, kept inline as the equivalence oracle
    (post-quorum votes are dropped, as in :class:`QuorumTracker`)."""

    def __init__(self, threshold):
        self.threshold = threshold
        self._votes = {}
        self._reached = set()

    def add_vote(self, key, voter):
        if key in self._reached:
            return False
        voters = self._votes.setdefault(key, set())
        voters.add(voter)
        if len(voters) >= self.threshold:
            self._reached.add(key)
            return True
        return False

    def voters(self, key):
        return tuple(sorted(self._votes.get(key, set())))

    def count(self, key):
        return len(self._votes.get(key, set()))

    def has_quorum(self, key):
        return key in self._reached

    def clear(self, key):
        self._votes.pop(key, None)
        self._reached.discard(key)


class TestBitmaskEquivalence:
    """Property tests: the bitmask tracker ≡ the seed dict-of-sets tracker
    over randomized vote traces with late, duplicate, and post-quorum votes
    (and interleaved clears)."""

    @pytest.mark.parametrize("seed", range(10))
    def test_randomized_vote_traces(self, seed):
        import random

        rng = random.Random(4000 + seed)
        n = rng.randint(4, 40)
        threshold = (2 * ((n - 1) // 3)) + 1
        bitmask = QuorumTracker(threshold=threshold)
        reference = ReferenceSetTracker(threshold=threshold)
        keys = [(0, r, d) for r in range(1, 5) for d in range(2)]
        for step in range(600):
            key = rng.choice(keys)
            if rng.random() < 0.03:
                bitmask.clear(key)
                reference.clear(key)
                continue
            # Duplicate voters are common (network retransmissions) and
            # votes keep arriving long after quorum.
            voter = rng.randint(0, n - 1)
            assert bitmask.add_vote(key, voter) == reference.add_vote(key, voter), (
                f"divergence at step {step} key {key} voter {voter}"
            )
            assert bitmask.has_quorum(key) == reference.has_quorum(key)
            assert bitmask.count(key) == reference.count(key)
            assert bitmask.voters(key) == reference.voters(key)

    def test_post_quorum_votes_dropped_by_default(self):
        tracker = QuorumTracker(threshold=2)
        assert not tracker.add_vote("k", 0)
        assert tracker.add_vote("k", 1)
        # A post-quorum vote flood must not grow per-key state.
        before = tracker.count("k")
        for voter in range(2, 50):
            assert not tracker.add_vote("k", voter)
        assert tracker.count("k") == before == 2
        assert tracker.voters("k") == (0, 1)

    def test_clear_releases_all_state(self):
        tracker = QuorumTracker(threshold=1)
        tracker.add_vote("k", 3)
        assert tracker.has_quorum("k")
        assert tracker.tracked_keys() == 1
        tracker.clear("k")
        assert tracker.tracked_keys() == 0
        assert not tracker.has_quorum("k")
        # The key can reach quorum again after a clear (fresh state).
        assert tracker.add_vote("k", 4)

    def test_large_voter_ids_supported(self):
        tracker = QuorumTracker(threshold=2)
        tracker.add_vote("k", 1000)
        assert tracker.add_vote("k", 2000)
        assert tracker.voters("k") == (1000, 2000)
