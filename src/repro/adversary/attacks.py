"""The Byzantine attack catalog.

Each attack is a frozen, hashable spec describing a *behaviour* of one or
more adversarial replicas, applied at the message layer through the
per-node :class:`~repro.adversary.interceptor.AdversaryInterceptor`:

* :class:`Equivocation` — a leader sends conflicting proposals (and the
  conspiracy sends matching conflicting votes) to disjoint replica sets,
  the classic safety attack.  With fewer than ``n/3`` conspirators at most
  one of the two forks can gather a quorum, so safety holds and the attack
  degrades into a targeted liveness/latency attack; at ``n/3`` and beyond
  both forks can commit and the safety auditor reports the violation.
* :class:`Silence` — selective message suppression (censorship): per
  target replica, per message class, and/or per consensus instance (the
  bucketed workload maps transaction classes onto instances, so censoring
  an instance censors a transaction class).
* :class:`DelayedVotes` — adversarial timing: outbound protocol messages
  are withheld just under the view-change timeout, slowing every quorum
  the adversary participates in without ever triggering a view change.
* :class:`RankManipulation` — the paper's Byzantine straggler (Sec. 4.4,
  Appendix B case 3): propose at ``1/k`` rate with empty blocks and use
  only the lowest 2f+1 rank reports.  This is the one way to declare a
  Byzantine straggler (``FaultConfig.with_stragglers(byzantine=True)``
  builds it).

Equivocation forking is modelled for the PBFT-family instances
(pre-prepare / prepare / commit).  Chained-HotStuff proposals embed the
parent QC, which makes a naive digest fork detectable immediately, so the
interceptor leaves HotStuff messages untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.consensus.messages import (
    CheckpointMessage,
    Commit,
    HotStuffProposal,
    HotStuffVote,
    NewView,
    PrePrepare,
    Prepare,
    RankMessage,
    ViewChange,
)
from repro.crypto.hashing import digest_hex

#: message classes an attack can select on
PROPOSAL = "proposal"
VOTE = "vote"
VIEW_CHANGE = "view-change"
CHECKPOINT = "checkpoint"
RANK = "rank"

_KIND_OF = {
    PrePrepare: PROPOSAL,
    HotStuffProposal: PROPOSAL,
    Prepare: VOTE,
    Commit: VOTE,
    HotStuffVote: VOTE,
    ViewChange: VIEW_CHANGE,
    NewView: VIEW_CHANGE,
    CheckpointMessage: CHECKPOINT,
    RankMessage: RANK,
}

#: every message class an attack's ``kinds`` filter may name
MESSAGE_KINDS: Tuple[str, ...] = tuple(sorted(set(_KIND_OF.values())))


def message_kind(message: object) -> Optional[str]:
    """Classify a protocol message, or None for unknown message types."""
    kind = _KIND_OF.get(type(message))
    if kind is not None:
        return kind
    for cls, name in _KIND_OF.items():
        if isinstance(message, cls):
            return name
    return None


def forged_digest(digest: str) -> str:
    """The deterministic conflicting digest all conspirators agree on.

    Determinism is what makes the conspiracy consistent without explicit
    coordination: every adversarial replica derives the same second-world
    digest from the true one, so forked proposals and forked votes match.
    """
    return digest_hex("equivocation", digest)


def forge_message(message: object) -> object:
    """The conflicting variant of ``message`` shown to the forged world.

    Only PBFT-family messages are forked (see module docstring); anything
    else is returned unchanged.
    """
    if isinstance(message, PrePrepare):
        return replace(message, digest=forged_digest(message.digest))
    if isinstance(message, (Prepare, Commit)):
        return replace(message, digest=forged_digest(message.digest))
    return message


# ------------------------------------------------------------------ attacks
@dataclass(frozen=True)
class Attack:
    """Base of every catalog entry: who misbehaves and when.

    ``replicas`` are the conspirators carrying this behaviour; the attack
    is active from ``start`` to the end of the run.
    """

    replicas: Tuple[int, ...] = ()
    start: float = 0.0

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ValueError("an attack needs at least one adversarial replica")
        if len(set(self.replicas)) != len(self.replicas):
            raise ValueError("attack replicas must be distinct")
        if any(replica < 0 for replica in self.replicas):
            raise ValueError("replica ids must be non-negative")
        if self.start < 0:
            raise ValueError("attack start must be non-negative")

    @property
    def label(self) -> str:
        name = type(self).__name__
        return "".join(
            ("-" if index else "") + char.lower() if char.isupper() else char
            for index, char in enumerate(name)
        )

    def _window(self) -> str:
        return f"t=[{self.start:g}s, end)"

    def describe(self) -> str:
        return f"{self.label} by {list(self.replicas)} {self._window()}"


@dataclass(frozen=True)
class Equivocation(Attack):
    """Conflicting proposals (and matching votes) to disjoint replica sets."""

    def describe(self) -> str:
        return (
            f"equivocation: replicas {list(self.replicas)} fork proposals/votes "
            f"into two worlds {self._window()}"
        )


@dataclass(frozen=True)
class Silence(Attack):
    """Selective suppression of the conspirators' outbound messages.

    Empty ``targets`` / ``kinds`` / ``instances`` mean "all"; non-empty
    tuples restrict the censorship to those receivers, message classes, or
    consensus instances.
    """

    targets: Tuple[int, ...] = ()
    kinds: Tuple[str, ...] = ()
    instances: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        unknown = set(self.kinds) - set(MESSAGE_KINDS)
        if unknown:
            raise ValueError(
                f"unknown message kinds {sorted(unknown)}; known: {list(MESSAGE_KINDS)}"
            )

    def matches(self, receiver: int, kind: str, message: object) -> bool:
        if self.targets and receiver not in self.targets:
            return False
        if self.kinds and kind not in self.kinds:
            return False
        if self.instances:
            instance = getattr(message, "instance", None)
            if instance not in self.instances:
                return False
        return True

    def describe(self) -> str:
        what = ",".join(self.kinds) if self.kinds else "all messages"
        to = f"to {list(self.targets)}" if self.targets else "to everyone"
        inst = f" on instances {list(self.instances)}" if self.instances else ""
        return (
            f"silence: replicas {list(self.replicas)} suppress {what} {to}{inst} "
            f"{self._window()}"
        )


@dataclass(frozen=True)
class DelayedVotes(Attack):
    """Withhold outbound messages for ``delay`` seconds before sending.

    Keeping ``delay`` under the view-change timeout slows every quorum and
    every round led by the adversary without ever giving the honest
    replicas cause to change views.
    """

    delay: float = 8.0
    kinds: Tuple[str, ...] = (PROPOSAL, VOTE)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.delay <= 0:
            raise ValueError("delay must be positive")
        unknown = set(self.kinds) - set(MESSAGE_KINDS)
        if unknown:
            raise ValueError(
                f"unknown message kinds {sorted(unknown)}; known: {list(MESSAGE_KINDS)}"
            )

    def describe(self) -> str:
        return (
            f"delayed-votes: replicas {list(self.replicas)} hold "
            f"{','.join(self.kinds)} for {self.delay:g}s {self._window()}"
        )


@dataclass(frozen=True)
class RankManipulation(Attack):
    """The paper's Byzantine straggler: slow, empty blocks, lowest-2f+1 ranks.

    ``slowdown`` is the ``k`` of Sec. 6.1: the manipulating leader proposes
    at ``1/k`` of the normal rate (and, like every straggler, proposes
    empty blocks).  Unlike the message-layer attacks this behaviour is
    configuration-level (it rides the straggler machinery), so ``start`` is
    not supported: it is active for the whole run.
    """

    slowdown: float = 10.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.slowdown < 1.0:
            raise ValueError("slowdown k must be >= 1")
        if self.start != 0.0:
            raise ValueError("rank manipulation is active for the whole run")

    def describe(self) -> str:
        return (
            f"rank-manipulation: replicas {list(self.replicas)} straggle at 1/"
            f"{self.slowdown:g} rate and use only the lowest 2f+1 rank reports"
        )
