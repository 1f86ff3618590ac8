"""Pluggable execution backends behind one sans-I/O seam.

Protocol code (nodes, consensus state machines, the Multi-BFT systems)
imports *only* from this package — never from ``repro.sim.simulator`` or
``repro.sim.network`` — and therefore runs unchanged on every backend:

========== ============================================ ====================
backend    class                                        time
========== ============================================ ====================
``des``    :class:`~repro.runtime.des.DESRuntime`       virtual (simulated)
``realtime`` :class:`~repro.runtime.realtime.RealtimeRuntime` wall clock
``sharded`` :class:`~repro.runtime.sharded.ShardedDESRuntime` virtual, parallel
========== ============================================ ====================

Use :func:`build_runtime` to construct a backend by name.

Only the DES backend is imported with the package.  The realtime backend
pulls in ``asyncio`` (and with it ``ssl``), ~4 MiB per process that a DES
run never uses, so it is imported on first use: by ``build_runtime
("realtime")`` or by reading ``repro.runtime.RealtimeRuntime``.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.runtime.base import Runtime, RUNTIME_KINDS
from repro.runtime.des import DESRuntime
from repro.sim.latency import LatencyModel
from repro.sim.network import NetworkConfig, NetworkStats
from repro.sim.trace import TraceRecorder

__all__ = [
    "Runtime",
    "RUNTIME_KINDS",
    "DESRuntime",
    "RealtimeRuntime",
    "NetworkConfig",
    "NetworkStats",
    "build_runtime",
]


def __getattr__(name: str) -> Any:
    if name == "RealtimeRuntime":
        from repro.runtime.realtime import RealtimeRuntime

        return RealtimeRuntime
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def build_runtime(
    kind: str,
    seed: int = 0,
    latency: Optional[LatencyModel] = None,
    network_config: Optional[NetworkConfig] = None,
    trace: Optional[TraceRecorder] = None,
    time_scale: float = 1.0,
) -> Runtime:
    """Construct the single-process execution backend named ``kind``.

    ``time_scale`` only applies to the realtime backend (wall seconds per
    virtual second; e.g. ``0.1`` runs a 10 s scenario in ~1 s of wall time).
    The sharded backend is system-scoped — the hub partitions replicas and
    derives its lookahead from the whole cell — so it is built with the
    system, by :func:`repro.protocols.registry.build_system`.
    """
    if kind == "des":
        return DESRuntime(seed=seed, latency=latency, config=network_config, trace=trace)
    if kind == "realtime":
        from repro.runtime.realtime import RealtimeRuntime

        return RealtimeRuntime(
            seed=seed,
            latency=latency,
            config=network_config,
            trace=trace,
            time_scale=time_scale,
        )
    if kind == "sharded":
        raise ValueError(
            "the sharded runtime is system-scoped: build the whole system "
            "via repro.protocols.registry.build_system(cell)"
        )
    raise ValueError(f"unknown runtime {kind!r}; expected one of {RUNTIME_KINDS}")
