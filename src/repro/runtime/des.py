"""Discrete-event runtime: the virtual-time backend.

:class:`DESRuntime` implements the :class:`~repro.runtime.base.Runtime`
interface by composing the existing simulator core
(:class:`~repro.sim.simulator.Simulator`) with the transport model
(:class:`~repro.sim.network.Network`).  Hot-path methods are *bound through*
in ``__init__`` (instance attributes referencing the underlying bound
methods) so the seam adds zero per-event indirection: ``runtime.send`` *is*
``network.send``.
"""

# staticcheck: hot-path
from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.runtime.base import Runtime
from repro.sim.latency import LatencyModel
from repro.sim.network import Network, NetworkConfig
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder


class DESRuntime(Runtime):
    """Virtual-time execution on the discrete-event simulator."""

    kind = "des"

    def __init__(
        self,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        config: Optional[NetworkConfig] = None,
        trace: Optional[TraceRecorder] = None,
        *,
        simulator: Optional[Simulator] = None,
        network: Optional[Network] = None,
    ) -> None:
        self.simulator = simulator if simulator is not None else Simulator(seed=seed, trace=trace)
        self.network = (
            network
            if network is not None
            else Network(self.simulator, latency=latency, config=config)
        )
        self.rng = self.simulator.rng
        self.trace = self.simulator.trace
        self.stats = self.network.stats
        # Zero-cost seam: expose the backend's bound methods directly.
        self.now = self.simulator.now
        self.schedule_at = self.simulator.schedule_at
        self.schedule_after = self.simulator.schedule_after
        self.cancel = self.simulator.cancel
        self.send = self.network.send
        self.multicast = self.network.multicast
        self.register = self.network.register
        self.registered_nodes = self.network.registered_nodes
        self.set_partition = self.network.set_partition
        self.heal_partition = self.network.heal_partition
        self.set_latency_scale = self.network.set_latency_scale
        self.set_drop_probability = self.network.set_drop_probability
        self.set_delivery_perturbation = self.network.set_delivery_perturbation

    # ------------------------------------------------------------- run loop
    def run(self, until: Optional[float] = None) -> float:
        """Run the event loop; the cyclic GC is off inside it and restored after."""
        return self.simulator.run(until=until)

    def step(self) -> bool:
        return self.simulator.step()

    @property
    def partitioned(self) -> bool:
        return self.network.partitioned

    @property
    def drop_probability(self) -> float:
        return self.network.drop_probability

    @property
    def events_processed(self) -> int:
        return self.simulator.events_processed
