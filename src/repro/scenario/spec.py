"""The declarative scenario specification.

A :class:`ScenarioSpec` composes the three scenario layers:

* **topology** — where replicas run and what the links look like
  (:class:`~repro.scenario.topology.TopologySpec`);
* **dynamics** — what happens to the network and the nodes over time
  (:mod:`repro.scenario.dynamics` events, lowered onto the
  :class:`~repro.sim.faults.FaultInjector` timeline);
* **traffic** — how client load arrives and where the clients sit
  (:class:`TrafficSpec`, built on :mod:`repro.workload.generator` profiles).

``ScenarioSpec.preset("wan")`` / ``("lan")`` are the paper's two fixed
environments — what ``ExperimentCell(environment=...)`` names when no scenario
is given; everything else is open for composition (a custom spec runs via
``build_system(cell, scenario=spec)``).  Specs are frozen
dataclasses of hashable fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.adversary.spec import AdversarySpec
from repro.scenario.dynamics import DynamicsEvent, resolve_dynamics
from repro.scenario.topology import TopologySpec
from repro.sim.faults import FaultConfig
from repro.sim.latency import LatencyModel
from repro.sim.network import NetworkConfig
from repro.workload.generator import (
    SaturatedTraffic,
    TrafficProfile,
    TrafficStream,
    zipf_weights,
)


@dataclass(frozen=True)
class TrafficSpec:
    """Client traffic: arrival profile, instance skew, client placement.

    ``instance_zipf_s`` skews the aggregate arrival stream across consensus
    instances (0 = uniform split); ``client_placement`` is a weighted list of
    client regions — transactions submitted from a region take that region's
    one-way delay to reach each instance's leader, shifting their effective
    submission times (and hence measured end-to-end latency) accordingly.
    """

    profile: TrafficProfile = field(default_factory=SaturatedTraffic)
    instance_zipf_s: float = 0.0
    client_placement: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.instance_zipf_s < 0:
            raise ValueError("zipf exponent must be non-negative")
        for region, weight in self.client_placement:
            if weight <= 0:
                raise ValueError(f"client weight for region {region!r} must be positive")

    @property
    def is_default(self) -> bool:
        return (
            isinstance(self.profile, SaturatedTraffic)
            and self.instance_zipf_s == 0.0
            and not self.client_placement
        )

    def build_stream(
        self, num_instances: int, n: int, topology: TopologySpec
    ) -> Optional[TrafficStream]:
        """Build the per-run traffic stream; None = the saturated workload."""
        if self.is_default:
            return None
        weights = (
            zipf_weights(num_instances, self.instance_zipf_s)
            if self.instance_zipf_s > 0
            else None
        )
        submit_delay = None
        if self.client_placement:
            assignment = topology.assignment(n)
            total_weight = sum(weight for _, weight in self.client_placement)
            submit_delay = []
            for instance_id in range(num_instances):
                # The initial leader of instance i is replica i mod n.
                leader_region = assignment[instance_id % n]
                mean = sum(
                    weight * topology.delay_between(region, leader_region)
                    for region, weight in self.client_placement
                ) / total_weight
                submit_delay.append(mean)
        return TrafficStream(
            self.profile, num_instances, weights=weights, submit_delay=submit_delay
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One declaratively-configured experiment environment."""

    name: str
    description: str = ""
    topology: TopologySpec = field(default_factory=TopologySpec.wan)
    dynamics: Tuple[DynamicsEvent, ...] = ()
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    #: Byzantine behaviour active in this scenario (None = all honest)
    adversary: Optional[AdversarySpec] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenarios must be named")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop probability must be in [0, 1)")
        if not 0.0 <= self.duplicate_probability < 1.0:
            raise ValueError("duplicate probability must be in [0, 1)")

    # -------------------------------------------------------------- presets
    @classmethod
    def preset(cls, environment: str) -> "ScenarioSpec":
        """The paper's fixed environments: what ``environment=`` names."""
        if environment == "wan":
            return cls(name="wan", description="paper 4-region WAN, saturated load")
        if environment == "lan":
            return cls(
                name="lan",
                description="paper single-datacenter LAN, saturated load",
                topology=TopologySpec.lan(),
            )
        raise ValueError("preset environment must be 'wan' or 'lan'")

    # ------------------------------------------------------------- builders
    @property
    def environment(self) -> str:
        """The paper environment whose block-rate default this scenario takes."""
        return "lan" if self.topology.kind == "lan" else "wan"

    def build_latency(self, n: int) -> LatencyModel:
        return self.topology.build_latency(n)

    def network_config(self, n: int) -> NetworkConfig:
        return NetworkConfig(
            drop_probability=self.drop_probability,
            duplicate_probability=self.duplicate_probability,
            node_bandwidth=self.topology.node_bandwidth(n),
        )

    def fault_config(self, base: FaultConfig, n: int) -> FaultConfig:
        """Merge the dynamics timeline and adversary into ``base``."""
        config = base
        if self.dynamics:
            config = resolve_dynamics(self.dynamics, config, self.topology, n)
        if self.adversary is not None:
            self.adversary.validate_for(n)
            config = config.with_adversary(self.adversary)
        return config

    def build_traffic_stream(self, num_instances: int, n: int) -> Optional[TrafficStream]:
        return self.traffic.build_stream(num_instances, n, self.topology)

    def describe(self) -> str:
        parts = [self.topology.describe(), self.traffic.profile.describe()]
        if self.dynamics:
            parts.append(f"{len(self.dynamics)} timeline events")
        if self.drop_probability:
            parts.append(f"loss {self.drop_probability:.1%}")
        if self.duplicate_probability:
            parts.append(f"dup {self.duplicate_probability:.1%}")
        if self.adversary is not None:
            parts.append(f"adversary: {self.adversary.describe()}")
        return "; ".join(parts)
