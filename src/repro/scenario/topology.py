"""Declarative deployment topologies.

A :class:`TopologySpec` describes where replicas sit and how long a link
takes: the region set, the (possibly asymmetric) per-link one-way delay
matrix, the replica-to-region placement, the jitter, and optional per-region
uplink bandwidth.  Every spec builds the same model, a
:class:`~repro.sim.latency.TopologyLatency`; ``kind`` is only the preset
*label* — ``"wan"`` and ``"lan"`` fill in the paper's regions, links and
jitter where the spec leaves them empty (and name the block-rate default),
``"custom"`` brings its own.

Specs are frozen, tuple-field dataclasses so they hash, compare, and repr
deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

from repro.sim.latency import (
    DEFAULT_WAN_REGIONS,
    SINGLE_REGION,
    LatencyModel,
    TopologyLatency,
    _WAN_ONE_WAY_DELAY,
    link_delay,
)

class _Preset(NamedTuple):
    regions: Tuple[str, ...]
    links: Tuple[Tuple[str, str, float], ...]
    jitter: float


#: what a ``kind`` fills in where the spec leaves the field empty: the paper's
#: WAN is four regions with 5 ms jitter, its LAN one region with 0.3 ms; a
#: custom topology names its own regions and links
_PRESETS: Dict[str, _Preset] = {
    "wan": _Preset(
        DEFAULT_WAN_REGIONS,
        tuple((a, b, delay) for (a, b), delay in _WAN_ONE_WAY_DELAY.items()),
        0.005,
    ),
    "lan": _Preset((SINGLE_REGION,), (), 0.0003),
    "custom": _Preset((), (), 0.005),
}


@dataclass(frozen=True)
class TopologySpec:
    """A region/topology description.

    ``links`` holds one-way delays as ``(src_region, dst_region, seconds)``
    triples; with ``symmetric=True`` each triple also registers the reverse
    direction unless overridden by an explicit reverse triple.  ``placement``
    assigns replicas to regions explicitly (cycled when shorter than ``n``);
    when empty, replicas are placed round-robin across ``regions`` exactly as
    the paper distributes them.  ``jitter=None`` takes the preset's.
    """

    kind: str = "wan"  # "wan" | "lan" | "custom"
    regions: Tuple[str, ...] = ()
    links: Tuple[Tuple[str, str, float], ...] = ()
    jitter: Optional[float] = None
    symmetric: bool = True
    placement: Tuple[str, ...] = ()
    default_delay: Optional[float] = None
    #: per-region uplink bandwidth overrides, bytes/second
    bandwidth_by_region: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _PRESETS:
            raise ValueError("topology kind must be 'wan', 'lan' or 'custom'")
        if self.kind == "custom" and not self.regions:
            raise ValueError("custom topologies must name their regions")
        if self.kind != "custom" and self.regions:
            # The presets keep their canonical region sets; a different set
            # would silently desynchronise placement from the preset delay
            # matrix.
            raise ValueError(
                f"kind={self.kind!r} uses its fixed region set; "
                "use kind='custom' for custom regions"
            )
        if self.jitter is None:
            # resolved here so equal topologies compare and hash equal
            object.__setattr__(self, "jitter", _PRESETS[self.kind].jitter)
        if self.default_delay is not None and not 0.0 <= self.default_delay < math.inf:
            raise ValueError(
                f"default_delay must be finite and non-negative, got {self.default_delay!r}"
            )
        known = set(self.region_names())
        for src, dst, delay in self.links:
            if src not in known or dst not in known:
                raise ValueError(f"link {src!r}->{dst!r} references unknown region")
            if delay < 0:
                raise ValueError(f"negative delay on link {src!r}->{dst!r}")
        for region in self.placement:
            if region not in known:
                raise ValueError(f"placement references unknown region {region!r}")
        for region, bandwidth in self.bandwidth_by_region:
            if region not in known:
                raise ValueError(f"bandwidth override for unknown region {region!r}")
            if bandwidth <= 0:
                raise ValueError(f"bandwidth for region {region!r} must be positive")

    # -------------------------------------------------------------- presets
    @classmethod
    def wan(cls, jitter: Optional[float] = None) -> "TopologySpec":
        """The paper's four-region WAN."""
        return cls(kind="wan", jitter=jitter)

    @classmethod
    def lan(cls) -> "TopologySpec":
        """The paper's single-datacenter LAN."""
        return cls(kind="lan")

    # ------------------------------------------------------------- geometry
    def region_names(self) -> Tuple[str, ...]:
        return self.regions or _PRESETS[self.kind].regions

    def assignment(self, n: int) -> Tuple[str, ...]:
        """Region of each replica ``0..n-1``."""
        if n <= 0:
            raise ValueError("n must be positive")
        pool = self.placement if self.placement else self.region_names()
        return tuple(pool[i % len(pool)] for i in range(n))

    def delay_matrix(self) -> Dict[Tuple[str, str], float]:
        """The directed one-way delays this spec's links register."""
        matrix: Dict[Tuple[str, str], float] = {}
        for src, dst, delay in self.links or _PRESETS[self.kind].links:
            matrix[(src, dst)] = delay
            if self.symmetric:
                matrix.setdefault((dst, src), delay)
        return matrix

    def delay_between(self, region_a: str, region_b: str) -> float:
        """Base one-way delay ``region_a -> region_b`` (no jitter)."""
        return link_delay(self.delay_matrix(), region_a, region_b, self.default_delay)

    # ------------------------------------------------------------- builders
    def build_latency(self, n: int) -> LatencyModel:
        """The latency model of ``n`` replicas placed on this topology.

        Raises ``KeyError`` naming the link if two regions that host
        replicas have no registered delay (and there is no ``default_delay``).
        """
        return TopologyLatency(
            self.assignment(n), self.delay_matrix(), self.jitter, self.default_delay
        )

    def node_bandwidth(self, n: int) -> Optional[Dict[int, float]]:
        """Per-replica uplink bandwidth overrides, or None when homogeneous."""
        if not self.bandwidth_by_region:
            return None
        by_region = dict(self.bandwidth_by_region)
        assignment = self.assignment(n)
        overrides = {
            replica: by_region[region]
            for replica, region in enumerate(assignment)
            if region in by_region
        }
        return overrides or None

    def replicas_in_region(self, region: str, n: int) -> Tuple[int, ...]:
        return tuple(
            replica for replica, name in enumerate(self.assignment(n)) if name == region
        )

    def describe(self) -> str:
        names = self.region_names()
        return f"{self.kind}[{', '.join(names)}]"
