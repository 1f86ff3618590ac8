"""Pluggable execution backends behind one sans-I/O seam.

Protocol code (nodes, consensus state machines, the Multi-BFT systems)
imports *only* from this package — never from ``repro.sim.simulator`` or
``repro.sim.network`` — and therefore runs unchanged on every backend:

=========== ===================================================== ==================
backend     class                                                 time
=========== ===================================================== ==================
``des``     :class:`~repro.runtime.des.DESRuntime`                virtual (simulated)
``sharded`` :class:`~repro.runtime.sharded.ShardedDESRuntime`     virtual, parallel
=========== ===================================================== ==================

Use :func:`build_runtime` to construct a backend by name.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.base import Runtime, RUNTIME_KINDS
from repro.runtime.des import DESRuntime
from repro.sim.latency import LatencyModel
from repro.sim.network import NetworkConfig, NetworkStats
from repro.sim.trace import TraceRecorder

__all__ = [
    "Runtime",
    "RUNTIME_KINDS",
    "DESRuntime",
    "NetworkConfig",
    "NetworkStats",
    "build_runtime",
]


def build_runtime(
    kind: str,
    seed: int = 0,
    latency: Optional[LatencyModel] = None,
    network_config: Optional[NetworkConfig] = None,
    trace: Optional[TraceRecorder] = None,
) -> Runtime:
    """Construct the single-process execution backend named ``kind``.

    The sharded backend is system-scoped — the hub partitions replicas and
    derives its lookahead from the whole cell — so it is built with the
    system, by :func:`repro.protocols.registry.build_system`.
    """
    if kind == "des":
        return DESRuntime(seed=seed, latency=latency, config=network_config, trace=trace)
    if kind == "sharded":
        raise ValueError(
            "the sharded runtime is system-scoped: build the whole system "
            "via repro.protocols.registry.build_system(cell)"
        )
    raise ValueError(f"unknown runtime {kind!r}; expected one of {RUNTIME_KINDS}")
