"""Per-node outbound message interception.

An :class:`AdversaryInterceptor` is installed on an adversarial node's
``interceptor`` hook (:class:`repro.sim.node.Node`) by
:meth:`repro.adversary.spec.AdversarySpec.install`.  Every outbound
message of that node passes through :meth:`outbound`, which applies the
currently active attacks in a fixed pipeline:

1. **silence** — matching messages are suppressed outright;
2. **equivocation** — messages belonging to an instance led by the
   conspiracy are rewritten for receivers living in the forged world;
3. **delay** — matching messages are scheduled ``delay`` seconds late.

Attacks are switched on by :class:`~repro.sim.faults.FaultInjector`
timeline events, so their starts show up in the run's ``dynamics_log`` next
to crashes and partitions.

The *forged world* is the set of honest replicas with odd ids: the
conspiracy always shares the true view among itself (otherwise colluders
could not derive consistent forged votes), honest even-id replicas see the
original messages, and honest odd-id replicas see the forked ones.  With
``a`` conspirators only ``(n - a + 1) // 2 + a`` replicas back either
fork, which stays below a 2f+1 quorum for every tolerable ``a < n/3`` —
the safety argument the auditor checks experimentally.
"""

from __future__ import annotations

from typing import Any, Dict, List, TYPE_CHECKING

from repro.adversary.attacks import (
    Attack,
    DelayedVotes,
    Equivocation,
    PROPOSAL,
    Silence,
    VOTE,
    forge_message,
    message_kind,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.base import Runtime
    from repro.sim.node import Node


class AdversaryInterceptor:
    """Applies a replica's active attacks to its outbound messages."""

    def __init__(
        self,
        replica_id: int,
        runtime: "Runtime",
        n: int,
        conspirators: frozenset,
    ) -> None:
        self.replica_id = replica_id
        self.runtime = runtime
        self.n = n
        self.conspirators = frozenset(conspirators)
        self._active: List[Attack] = []
        self.suppressed = 0
        self.delayed = 0
        self.forged = 0

    # ------------------------------------------------------------- lifecycle
    def activate(self, attack: Attack) -> None:
        if attack not in self._active:
            self._active.append(attack)

    def stats(self) -> Dict[str, int]:
        return {
            "suppressed": self.suppressed,
            "delayed": self.delayed,
            "forged": self.forged,
        }

    # ------------------------------------------------------------- the hook
    def outbound(self, node: "Node", receiver: int, message: Any, size_bytes: int) -> bool:
        """Intercept one outbound message.

        Returns True when the interceptor took over delivery (the node must
        not send the original); False passes the message through untouched.
        """
        if not self._active:
            return False
        kind = message_kind(message)
        if kind is None:
            return False

        out = message
        delay = 0.0
        for attack in self._active:
            if isinstance(attack, Silence) and attack.matches(receiver, kind, message):
                self.suppressed += 1
                return True
            if isinstance(attack, DelayedVotes) and kind in attack.kinds:
                delay = max(delay, attack.delay)
            if isinstance(attack, Equivocation):
                rewritten = self._equivocate(attack, receiver, out, kind)
                if rewritten is not out:
                    out = rewritten
                    self.forged += 1

        if delay > 0.0:
            self.delayed += 1
            self._send_later(node, receiver, out, size_bytes, delay)
            return True
        if out is not message:
            node.runtime.send(node.node_id, receiver, out, size_bytes)
            return True
        return False

    # ------------------------------------------------------------- internals
    def _send_later(
        self, node: "Node", receiver: int, message: Any, size_bytes: int, delay: float
    ) -> None:
        def _release() -> None:
            if not node.crashed:
                node.runtime.send(node.node_id, receiver, message, size_bytes)

        self.runtime.schedule_after(delay, _release)

    def _in_forged_world(self, receiver: int) -> bool:
        return receiver not in self.conspirators and receiver % 2 == 1

    def _equivocate(
        self, attack: Equivocation, receiver: int, message: Any, kind: str
    ) -> Any:
        if kind not in (PROPOSAL, VOTE):
            return message
        instance = getattr(message, "instance", -1)
        if instance is None or instance < 0:
            return message
        # Fork only the instances the conspiracy leads in the message's
        # view: forging votes on honestly-led instances would censor them
        # for the forged world, which is Silence's job, not Equivocation's.
        view = getattr(message, "view", 0)
        if (instance + view) % self.n not in attack.replicas:
            return message
        if not self._in_forged_world(receiver):
            return message
        return forge_message(message)
