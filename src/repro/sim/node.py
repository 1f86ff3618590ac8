"""Node (replica process) abstraction.

A :class:`Node` owns a node id and a reference to its execution
:class:`~repro.runtime.base.Runtime`, and provides timers plus
a multicast helper (a unicast is a one-receiver multicast).  Subclasses implement :meth:`on_message`, or
override :meth:`_receive` as protocol replicas do.  Nodes are *sans-I/O*:
they never touch a simulator or a network directly, so the same node runs
on every backend, a shard worker's included.  Sim-layer
tests that build their own simulator and network pass
``DESRuntime(simulator=sim, network=net)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional


@dataclass(slots=True)
class Timer:
    """A cancellable timer owned by a node."""

    name: str
    event: Any  # a runtime scheduling handle: ``cancel()`` + ``cancelled``


class Node:
    """Base class for simulated processes (replicas, clients, injectors)."""

    #: outbound message interceptor (the adversary subsystem's hook); when
    #: set, every outbound message passes through ``interceptor.outbound``,
    #: which may suppress, rewrite, or delay it.  None = honest node.
    interceptor: Optional[Any] = None

    def __init__(self, node_id: int, runtime: Any) -> None:
        self.node_id = node_id
        self.runtime = runtime
        self.crashed = False
        self._timers: Dict[str, Timer] = {}
        runtime.register(node_id, self._receive)
        # Hot-path binding: ``self.now()`` goes straight to the backend clock.
        self.now = runtime.now

    # ------------------------------------------------------------- messaging
    def multicast(self, receivers, message: Any) -> None:
        """Send ``message`` to every receiver through one transport fan-out.

        With an interceptor installed, each receiver is first offered to
        ``interceptor.outbound`` (which may suppress, rewrite, or delay the
        copy); the *pass-through* receivers then go through the exact same
        fused ``runtime.multicast`` fan-out as the honest path, so
        bandwidth, loss, and duplicate accounting cannot diverge between
        the two paths.
        """
        if self.crashed:
            return
        if self.interceptor is not None:
            outbound = self.interceptor.outbound
            receivers = [
                receiver
                for receiver in receivers
                if not outbound(self, receiver, message)
            ]
            if not receivers:
                return
        self.runtime.multicast(self.node_id, receivers, message)

    def _receive(self, sender: int, message: Any) -> None:
        if self.crashed:
            return
        self.on_message(sender, message)

    def on_message(self, sender: int, message: Any) -> None:
        """Handle an incoming message; subclasses override."""
        raise NotImplementedError

    # ----------------------------------------------------------------- timers
    def set_timer(self, name: str, delay: float, callback: Callable[[], None]) -> Timer:
        """Start (or restart) a named timer firing ``delay`` seconds from now."""
        self.cancel_timer(name)

        def _fire() -> None:
            self._timers.pop(name, None)
            if not self.crashed:
                callback()

        event = self.runtime.schedule_after(delay, _fire, name)
        timer = Timer(name=name, event=event)
        self._timers[name] = timer
        return timer

    def cancel_timer(self, name: str) -> None:
        timer = self._timers.pop(name, None)
        if timer is not None:
            # Through the runtime (not event.cancel() directly) so the DES
            # backend can record the cancellation in the schedule trace.
            self.runtime.cancel(timer.event)

    def has_timer(self, name: str) -> bool:
        timer = self._timers.get(name)
        return timer is not None and not timer.event.cancelled

    # ----------------------------------------------------------------- faults
    def crash(self) -> None:
        """Crash the node: it stops sending, receiving, and firing timers."""
        self.crashed = True
        for timer in list(self._timers.values()):
            self.runtime.cancel(timer.event)
        self._timers.clear()

    def recover(self) -> None:
        """Recover a crashed node.

        The node rejoins with its pre-crash *state* (message logs, votes,
        ordering progress), but its timers were dropped by :meth:`crash` —
        a recovered process must re-arm whatever timers its protocol needs,
        which is exactly what the :meth:`on_recover` hook is for.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.on_recover()

    def on_recover(self) -> None:
        """Hook: re-arm protocol-level timers after a crash–recover cycle.

        Called by :meth:`recover` once ``crashed`` is cleared.  The base
        node has no timers worth resurrecting; protocol replicas override
        this (see ``MultiBFTReplica.on_recover``, which restarts proposal
        pacing for the instances the replica leads).
        """

    def start(self) -> None:
        """Hook called once by the system after every node is constructed."""
