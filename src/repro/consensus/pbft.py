"""Vanilla PBFT consensus instance.

Used as the instance protocol of the baseline Multi-BFT systems (ISS, Mir,
RCC, DQBFT).  The implementation follows Castro & Liskov's normal case —
pre-prepare, prepare, commit with 2f+1 quorums — plus the view-change
mechanism summarised in the paper (Sec. 5.2.2 "View-change mechanism"): a
replica that times out waiting for progress sends a view-change message to
the next leader, which installs the new view after collecting 2f+1 of them.

Hot-path / memory notes:

* messages dispatch through a class-level ``type -> handler name`` table
  (one dict lookup instead of an isinstance chain, nothing per instance);
* state only a view change, an out-of-order commit or a deferred commit
  send needs is created when that first happens — each replica hosts every
  instance, so an empty set per instance is paid n² times;
* prepare/commit votes are keyed ``(view, round, digest_id)`` where
  ``digest_id`` is a small interned int — the hot vote keys never hash a
  digest string — and the :class:`QuorumTracker` counts voters in bitmasks;
* the round log is **O(active window)**: when the contiguous committed
  prefix advances, the entries (with their batch references) are pruned and
  their quorum vote state is released (``_stable_round`` is the watermark;
  stale messages for pruned rounds are dropped at handler entry).  The
  compact columnar ``commit_log`` (:class:`CommitLog`) keeps (round,
  digest) per commit and the last commit time for the safety auditor;
  a committed :class:`Block` goes to the host and is not kept here.
"""

# staticcheck: hot-path
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import AbstractSet, Dict, List, Mapping, Optional, Tuple

from repro.core.block import Block
from repro.consensus.base import (
    CommitLog,
    ConsensusInstance,
    InstanceConfig,
    InstanceContext,
)
from repro.consensus.messages import Commit, NewView, PrePrepare, Prepare, ViewChange
from repro.consensus.quorum import QuorumTracker
from repro.crypto.hashing import digest_hex
from repro.workload.transactions import Batch


@dataclass(slots=True)
class RoundEntry:
    """Per-round log entry at one replica."""

    round: int
    view: int
    digest: str = ""
    txs: Tuple = ()
    tx_count: int = 0
    batch_submitted_at: float = 0.0
    rank: int = 0
    epoch: int = 0
    proposer: int = -1
    proposed_at: float = 0.0
    pre_prepared: bool = False
    prepare_quorum: bool = False
    commit_quorum: bool = False
    sent_prepare: bool = False
    sent_commit: bool = False
    committed: bool = False


class PBFTInstance(ConsensusInstance):
    """One PBFT instance (vanilla: no monotonic ranks)."""

    #: timer used to detect a stalled in-flight round
    ROUND_TIMER = "pbft-round"

    HANDLERS: Mapping[type, str] = MappingProxyType({
        PrePrepare: "_on_pre_prepare",
        Prepare: "_on_prepare",
        Commit: "_on_commit",
        ViewChange: "_on_view_change",
        NewView: "_on_new_view",
    })

    # Shared immutable defaults; an instance gets its own object on first use.
    #: view-change votes, and the highest last-committed round reported by
    #: any collected vote per ("view-change", view) key — the new-view
    #: resume point.  Both exist from the first view-change message on.
    view_change_votes: Optional[QuorumTracker] = None
    _view_change_high: Optional[Dict[Tuple, int]] = None
    #: rounds committed ahead of the contiguous prefix ``_stable_round``
    _committed_above: AbstractSet[int] = frozenset()
    #: rounds committed via the others' commit quorum whose own commit
    #: send is still pending on a late prepare quorum (lossy links);
    #: exempt from the stale-round drop so the late quorum can fire
    _deferred_sends: AbstractSet[int] = frozenset()

    def __init__(self, config: InstanceConfig, context: InstanceContext) -> None:
        super().__init__(config, context)
        self.next_round = 1
        self.last_committed_round = 0
        self.log: Dict[int, RoundEntry] = {}
        self.prepare_votes = QuorumTracker(config.quorum)
        self.commit_votes = QuorumTracker(config.quorum)
        self.view_change_in_progress = False
        #: compact (round, digest) history + last commit time for the auditor
        self.commit_log = CommitLog()
        #: first round of the current view after a view change (0 = no view change yet)
        self.view_resume_round = 0
        # ----- hot-path vote keys: digest -> small interned int -----
        self._digest_ids: Dict[str, int] = {}
        self._digest_seq = 0
        #: digests first seen (interned) per round, so a round's GC can
        #: release vote state for *every* digest voted at that round —
        #: including forged digests an equivocating adversary floods that
        #: never reach quorum
        self._round_digests: Dict[int, List[str]] = {}
        # ----- bounded log: rounds <= _stable_round are committed & pruned -----
        self._stable_round = 0

    # ----------------------------------------------------------------- hooks
    def start(self) -> None:
        """Arm the liveness timer that expects the first proposal (if enabled)."""
        self._arm_propose_timer()

    # -------------------------------------------------------------- proposing
    def _skip_reproposed_rounds(self) -> None:
        """Advance the proposal cursor past rounds already in flight.

        After a view change the new leader re-proposes every round that was
        prepared in the old view; those entries already exist in its log, so
        the fresh-proposal cursor must not land on them (it would offer a
        conflicting batch for an in-flight round)."""
        while True:
            entry = self.log.get(self.next_round)
            if entry is None or not entry.pre_prepared:
                return
            self.next_round += 1

    def ready_to_propose(self) -> bool:
        """The leader proposes one round at a time: round r needs r-1 committed."""
        if not self.is_leader or self.view_change_in_progress:
            return False
        self._skip_reproposed_rounds()
        return self.next_round == 1 or self.last_committed_round >= self.next_round - 1

    def propose(self, batch: Batch, now: float) -> Optional[PrePrepare]:
        if not self.ready_to_propose():
            return None
        round = self.next_round
        self.next_round += 1
        message = self._build_pre_prepare(round, batch, now)
        self.context.record_crypto("sign")
        self.context.multicast(message)
        return message

    def _build_pre_prepare(self, round: int, batch: Batch, now: float) -> PrePrepare:
        return PrePrepare(
            sender=self.replica_id,
            instance=self.instance_id,
            view=self.view,
            round=round,
            digest=digest_hex(self.instance_id, self.view, round, batch.tx_count),
            tx_count=batch.tx_count,
            txs=batch.txs,
            rank=round,  # vanilla PBFT: no meaningful rank, round stands in
            epoch=self.context.current_epoch(),
            proposed_at=now,
            batch_submitted_at=batch.submitted_at,
        )

    # -------------------------------------------------------------- vote keys
    def _vote_key(self, view: int, round: int, digest: str) -> Tuple[int, int, int]:
        """The interned, int-only quorum key for (view, round, digest)."""
        ids = self._digest_ids
        digest_id = ids.get(digest)
        if digest_id is None:
            digest_id = self._digest_seq = self._digest_seq + 1
            ids[digest] = digest_id
            self._round_digests.setdefault(round, []).append(digest)
        return (view, round, digest_id)

    # ------------------------------------------------------------ pre-prepare
    def _validate_pre_prepare(self, sender: int, message: PrePrepare) -> bool:
        if message.view != self.view:
            return False
        if sender != self.config.leader_for_view(message.view):
            return False
        entry = self.log.get(message.round)
        if entry is not None and entry.pre_prepared and entry.digest != message.digest:
            return False
        return True

    def _on_pre_prepare(self, sender: int, message: PrePrepare) -> None:
        if not self._validate_pre_prepare(sender, message):
            return
        if message.round <= self._stable_round:
            return  # round already committed and pruned: duplicate delivery
        entry = self._entry(message.round)
        if entry.pre_prepared:
            return
        entry.pre_prepared = True
        entry.view = message.view
        entry.digest = message.digest
        entry.txs = message.txs
        entry.tx_count = message.tx_count
        entry.batch_submitted_at = message.batch_submitted_at
        entry.rank = message.rank
        entry.epoch = message.epoch
        entry.proposer = sender
        entry.proposed_at = message.proposed_at
        self._arm_round_timer(message.round)

        if not entry.sent_prepare:
            entry.sent_prepare = True
            prepare = Prepare(
                sender=self.replica_id,
                instance=self.instance_id,
                view=self.view,
                round=message.round,
                digest=message.digest,
                rank=message.rank,
            )
            self.context.record_crypto("sign")
            self.context.multicast(prepare)

        # Quorums may have formed before the pre-prepare reached this replica.
        self._maybe_send_commit(entry)
        self._maybe_commit(entry)

    # ---------------------------------------------------------------- prepare
    def _on_prepare(self, sender: int, message: Prepare) -> None:
        if message.view != self.view:
            return
        round = message.round
        if round <= self._stable_round and round not in self._deferred_sends:
            return  # round already committed and pruned: stale vote
        # _vote_key, inlined: this runs once per prepare vote per replica.
        ids = self._digest_ids
        digest_id = ids.get(message.digest)
        if digest_id is None:
            digest_id = self._digest_seq = self._digest_seq + 1
            ids[message.digest] = digest_id
            self._round_digests.setdefault(round, []).append(message.digest)
        if not self.prepare_votes.add_vote((message.view, round, digest_id), sender):
            return
        entry = self._entry(round)
        entry.prepare_quorum = True
        self._maybe_send_commit(entry)

    def _maybe_send_commit(self, entry: RoundEntry) -> None:
        if not entry.pre_prepared or not entry.prepare_quorum or entry.sent_commit:
            return
        entry.sent_commit = True
        self._on_prepared(entry)
        commit = Commit(
            sender=self.replica_id,
            instance=self.instance_id,
            view=entry.view,
            round=entry.round,
            digest=entry.digest,
            rank=entry.rank,
        )
        self.context.record_crypto("sign")
        self.context.multicast(commit)
        if entry.committed:
            # The round had already committed through the others' commit
            # quorum while this replica's own prepare quorum was still
            # incomplete (lossy links); with the late commit now sent, the
            # round is final and its deferred GC can complete.
            self._finalize_deferred_send(entry)

    def _on_prepared(self, entry: RoundEntry) -> None:
        """Hook for subclasses (Ladon) that act when a round becomes prepared."""

    # ----------------------------------------------------------------- commit
    def _on_commit(self, sender: int, message: Commit) -> None:
        if message.view != self.view:
            return
        round = message.round
        if round <= self._stable_round:
            return  # round already committed and pruned: stale vote
        # _vote_key, inlined (once per commit vote per replica).
        ids = self._digest_ids
        digest_id = ids.get(message.digest)
        if digest_id is None:
            digest_id = self._digest_seq = self._digest_seq + 1
            ids[message.digest] = digest_id
            self._round_digests.setdefault(round, []).append(message.digest)
        if not self.commit_votes.add_vote((message.view, round, digest_id), sender):
            return
        entry = self._entry(round)
        entry.commit_quorum = True
        self._maybe_commit(entry)

    def _maybe_commit(self, entry: RoundEntry) -> None:
        if not entry.pre_prepared or not entry.commit_quorum or entry.committed:
            return
        entry.committed = True
        if entry.round > self.last_committed_round:
            self.last_committed_round = entry.round
        self.context.cancel_timer(self._round_timer_name(entry.round))
        now = self.context.now()
        block = Block(
            instance=self.instance_id,
            round=entry.round,
            rank=entry.rank,
            txs=entry.txs,
            epoch=entry.epoch,
            proposer=entry.proposer,
            proposed_at=entry.proposed_at,
            committed_at=now,
            # Thread the consensus digest through so the safety auditor can
            # compare *what* was committed, not just where (an equivocating
            # leader commits different digests at the same instance/round).
            payload_digest=entry.digest,
            tx_count_hint=entry.tx_count,
            batch_submitted_at=entry.batch_submitted_at,
        )
        self.commit_log.record(entry.round, entry.digest, now)
        self.context.deliver(block)
        self._on_committed(entry, block)
        self._gc_committed(entry)
        self._arm_propose_timer()

    def _on_committed(self, entry: RoundEntry, block: Block) -> None:
        """Hook for subclasses (Ladon) that act when a round commits."""

    # ----------------------------------------------------------- log pruning
    def _gc_committed(self, entry: RoundEntry) -> None:
        """Release a committed round's quorum votes and prune the stable prefix.

        Vote state for the committed key is dropped immediately, and —
        via ``_round_digests`` — so is the vote state of every *other*
        digest voted at that round (forged digests from an equivocating
        vote flood never reach quorum, so nothing else would release
        them).  The log entry itself (holding the batch reference) is
        pruned once the *contiguous* committed prefix reaches it, which
        keeps ``_stable_round`` a true watermark: every round at or below
        it is committed, so stale messages for those rounds can be dropped
        at handler entry without consulting the (now pruned) log.

        A round committed through the others' commit quorum while this
        replica's own prepare quorum is still incomplete (lossy links) is
        marked in ``_deferred_sends`` instead of blocking the watermark:
        its entry and prepare votes stay alive (the late quorum must still
        fire the commit send, pre-GC behaviour), the stale-round drop
        exempts it, and :meth:`_maybe_send_commit` finishes its GC when
        the quorum lands (or :meth:`_on_new_view` does, once a view change
        makes the missing prepares undeliverable).
        """
        key = self._vote_key(entry.view, entry.round, entry.digest)
        self.commit_votes.clear(key)
        if not entry.sent_commit:
            self._deferred_sends = self._deferred_sends or set()
            self._deferred_sends.add(entry.round)
        else:
            self.prepare_votes.clear(key)
        stable = self._stable_round
        above = self._committed_above
        if entry.round != stable + 1:
            # Ahead of the prefix: park it.  ``stable + 1`` is never parked
            # (the loop below consumes it), so the watermark cannot move.
            above = self._committed_above = above or set()
            above.add(entry.round)
            return
        deferred = self._deferred_sends
        log = self.log
        stable += 1
        while True:
            if stable not in deferred:  # else: entry + prepare votes stay until the send fires
                gone = log.pop(stable, None)
                self._release_round_votes(stable, gone.view if gone else entry.view)
            if stable + 1 not in above:
                break
            stable += 1
            above.discard(stable)
        self._stable_round = stable

    def _release_round_votes(self, round: int, view: int) -> None:
        """Drop interned digests and vote state for every digest of ``round``.

        Every caller has just pruned the round's log entry as well.  A dict
        this leaves empty gives its hash table back (``pop`` never shrinks
        one): between two rounds an instance holds nothing, and its empty
        tables would be paid n² times.
        """
        digest_ids = self._digest_ids
        round_digests = self._round_digests
        prepare_votes = self.prepare_votes
        commit_votes = self.commit_votes
        for digest in round_digests.pop(round, ()):
            digest_id = digest_ids.pop(digest, None)
            if digest_id is not None:
                key = (view, round, digest_id)
                prepare_votes.clear(key)
                commit_votes.clear(key)
        if not digest_ids:
            digest_ids.clear()
        if not round_digests:
            round_digests.clear()
        if not self.log:
            self.log.clear()

    def _finalize_deferred_send(self, entry: RoundEntry) -> None:
        """Complete the GC of a round whose commit send was deferred.

        (Also reached, as a no-op, when the commit send itself completed the
        commit quorum through the loopback vote.)
        """
        if self._deferred_sends:  # non-empty: the instance's own set
            self._deferred_sends.discard(entry.round)
        if entry.round <= self._stable_round:
            # The watermark already passed it: prune now.
            self.log.pop(entry.round, None)
            self._release_round_votes(entry.round, entry.view)
        else:
            key = self._vote_key(entry.view, entry.round, entry.digest)
            self.prepare_votes.clear(key)

    # ------------------------------------------------------------ view change
    def _round_timer_name(self, round: int) -> str:
        # staticcheck: ignore[HOT-002] -- per-round timer arming, not per-message; ~1 format per proposal
        return f"{self.ROUND_TIMER}:{self.instance_id}:{round}"

    def _arm_round_timer(self, round: int) -> None:
        """Expect the round to commit within the view-change timeout."""
        timeout = self.config.view_change_timeout
        self.context.set_timer(
            self._round_timer_name(round), timeout, lambda: self._on_timeout(round)
        )

    def _arm_propose_timer(self) -> None:
        """Optionally expect the next proposal within ``config.propose_timeout``.

        Disabled by default (honest stragglers must not trigger view changes,
        Sec. 6.1); the crash-fault experiment (Fig. 8) enables it.
        """
        timeout = self.config.propose_timeout
        if timeout is None:
            return
        self.context.set_timer(
            # staticcheck: ignore[HOT-002] -- fires once per proposal window, only in the Fig. 8 crash experiment
            f"pbft-propose:{self.instance_id}",
            timeout,
            self._on_propose_timeout,
        )

    def _on_propose_timeout(self) -> None:
        if not self.is_leader:
            self._start_view_change()

    def _on_timeout(self, round: int) -> None:
        if round <= self._stable_round:
            return  # committed (and pruned) before the timer fired
        entry = self.log.get(round)
        if entry is not None and entry.committed:
            return
        self._start_view_change()

    def _start_view_change(self) -> None:
        if self.view_change_in_progress:
            return
        self.view_change_in_progress = True
        new_view = self.view + 1
        message = ViewChange(
            sender=self.replica_id,
            instance=self.instance_id,
            view=new_view,
            round=self.last_committed_round,
            last_committed_round=self.last_committed_round,
            highest_rank=self.context.current_rank(),
        )
        self.context.record_crypto("sign")
        new_leader = self.config.leader_for_view(new_view)
        if new_leader == self.replica_id:
            # Direct self-delivery bypasses on_message: account the entry
            # verification the dispatch site would have recorded.
            self.context.record_crypto("verify")
            self._on_view_change(self.replica_id, message)
        else:
            self.context.send(new_leader, message)

    def _on_view_change(self, sender: int, message: ViewChange) -> None:
        if message.view <= self.view:
            return
        if self.config.leader_for_view(message.view) != self.replica_id:
            return
        votes = self.view_change_votes
        if votes is None:
            votes = self.view_change_votes = QuorumTracker(self.config.quorum)
            self._view_change_high = {}
        key = ("view-change", message.view)
        high = max(
            self._view_change_high.get(key, self.last_committed_round),
            message.last_committed_round,
        )
        self._view_change_high[key] = high
        if not votes.add_vote(key, sender):
            return
        resume_round = max(high, self.last_committed_round) + 1
        new_view_msg = NewView(
            sender=self.replica_id,
            instance=self.instance_id,
            view=message.view,
            round=resume_round,
            view_change_count=votes.count(key),
            resume_round=resume_round,
        )
        self.context.record_crypto("sign")
        self.context.multicast(new_view_msg)

    def _on_new_view(self, sender: int, message: NewView) -> None:
        if message.view <= self.view:
            return
        if sender != self.config.leader_for_view(message.view):
            return
        self.view = message.view
        self.view_change_in_progress = False
        # Reset (not max) the proposal cursor: rounds at and beyond the
        # resume point are dropped below and must be re-proposed, so a new
        # leader whose cursor had advanced past them would otherwise wait
        # forever for commits of rounds nobody can propose any more.
        self.next_round = max(self.last_committed_round + 1, message.resume_round)
        self.view_resume_round = message.resume_round
        is_new_leader = self.config.leader_for_view(message.view) == self.replica_id
        # Drop uncommitted in-flight rounds; the new leader re-proposes them.
        # Rounds that reached a prepare quorum in the old view are re-proposed
        # with their ORIGINAL digest/batch (PBFT's new-view rule): a replica
        # that already committed one of them must see the same content again,
        # never a fresh batch at the same round.  (Full PBFT sources these
        # from prepared certificates inside the view-change messages; we use
        # the new leader's own log, which holds them in all but pathological
        # message-loss interleavings.)
        stashed: Dict[int, RoundEntry] = {}
        for round, entry in list(self.log.items()):
            if not entry.committed and round >= message.resume_round:
                if is_new_leader and entry.pre_prepared and entry.prepare_quorum:
                    stashed[round] = entry
                del self.log[round]
                self.context.cancel_timer(self._round_timer_name(round))
        if not self.log:
            self.log.clear()  # release the emptied table
        # View-change bookkeeping for installed (and older) views is dead.
        # (Only the new leader of some view ever collected any.)
        high = self._view_change_high
        if high:
            for vc_key in [k for k in high if k[1] <= message.view]:
                del high[vc_key]
                self.view_change_votes.clear(vc_key)
            if not high:
                high.clear()
        # Deferred commit sends can never complete now (their missing
        # prepares belong to an older view and the view gate makes them
        # undeliverable): finalize their GC so they don't pin log entries
        # forever.  Deferred rounds always retain their log entry, created
        # in a view older than the one just installed.
        for round in list(self._deferred_sends):
            entry = self.log.pop(round)
            self._deferred_sends.discard(round)
            self._release_round_votes(round, entry.view)
        self._arm_propose_timer()
        self.on_view_installed(message.view)
        # Every prepared round is re-proposed (a prepared round may have
        # committed at some replica, so it must reappear with the same
        # content); holes between them are filled by the pacing loop, whose
        # cursor skips rounds already re-proposed in this view.
        for round in sorted(stashed):
            self._repropose(stashed[round])

    def _repropose(self, entry: RoundEntry) -> None:
        """Re-propose a round prepared in a previous view, content unchanged."""
        message = PrePrepare(
            sender=self.replica_id,
            instance=self.instance_id,
            view=self.view,
            round=entry.round,
            digest=entry.digest,
            tx_count=entry.tx_count,
            txs=entry.txs,
            rank=entry.rank,
            epoch=entry.epoch,
            reproposal=True,
            proposed_at=entry.proposed_at,
            batch_submitted_at=entry.batch_submitted_at,
        )
        self.context.record_crypto("sign")
        self.context.multicast(message)

    # -------------------------------------------------------------- internals
    def _entry(self, round: int) -> RoundEntry:
        entry = self.log.get(round)
        if entry is None:
            entry = self.log[round] = RoundEntry(round=round, view=self.view)
        return entry
