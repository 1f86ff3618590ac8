"""Deterministic discrete-event simulation substrate.

This package stands in for the paper's AWS deployment.  It provides:

* an event queue and virtual clock (:mod:`repro.sim.events`,
  :mod:`repro.sim.clock`);
* a simulator that schedules timers and message deliveries
  (:mod:`repro.sim.simulator`);
* the region-matrix latency model (the paper's LAN and 4-region WAN are
  two instances of it) plus a bandwidth model
  (:mod:`repro.sim.latency`, :mod:`repro.sim.network`);
* a node (replica process) abstraction with message handlers and timers
  (:mod:`repro.sim.node`);
* fault injectors: honest stragglers, Byzantine stragglers (rank
  minimisation), and crash faults (:mod:`repro.sim.faults`);
* structured tracing (:mod:`repro.sim.trace`).

Every run is deterministic given its configuration and seed.
"""

from repro.sim.clock import VirtualClock
from repro.sim.events import Event, EventQueue
from repro.sim.simulator import Simulator
from repro.sim.latency import (
    LatencyModel,
    UniformLatency,
    TopologyLatency,
    DEFAULT_WAN_REGIONS,
)
from repro.sim.network import Network, NetworkConfig, NetworkStats
from repro.sim.node import Node, Timer
from repro.sim.faults import (
    FaultConfig,
    StragglerSpec,
    CrashSpec,
    FaultInjector,
)
from repro.sim.trace import TraceRecorder, TraceEvent

__all__ = [
    "VirtualClock",
    "Event",
    "EventQueue",
    "Simulator",
    "LatencyModel",
    "UniformLatency",
    "TopologyLatency",
    "DEFAULT_WAN_REGIONS",
    "Network",
    "NetworkConfig",
    "NetworkStats",
    "Node",
    "Timer",
    "FaultConfig",
    "StragglerSpec",
    "CrashSpec",
    "FaultInjector",
    "TraceRecorder",
    "TraceEvent",
]
