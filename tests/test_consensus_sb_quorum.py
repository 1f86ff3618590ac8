"""Tests for quorum tracking."""

import pytest

from repro.consensus.quorum import QuorumTracker


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


class ReferenceSetTracker:
    """The seed dict-of-sets tracker, kept inline as the equivalence oracle."""

    def __init__(self, threshold, track_post_quorum=True):
        self.threshold = threshold
        self.track_post_quorum = track_post_quorum
        self._votes = {}
        self._reached = set()

    def add_vote(self, key, voter):
        if key in self._reached:
            if self.track_post_quorum:
                self._votes.setdefault(key, set()).add(voter)
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
        track = bool(seed % 2)
        bitmask = QuorumTracker(threshold=threshold, track_post_quorum=track)
        reference = ReferenceSetTracker(threshold=threshold, track_post_quorum=track)
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

    def test_post_quorum_tracking_opt_in(self):
        tracker = QuorumTracker(threshold=2, track_post_quorum=True)
        tracker.add_vote("k", 0)
        tracker.add_vote("k", 1)
        assert not tracker.add_vote("k", 5)
        assert tracker.count("k") == 3
        assert tracker.voters("k") == (0, 1, 5)
        assert tracker.has_quorum("k")

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
