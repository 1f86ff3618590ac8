"""Scenario engine: declarative topologies, network dynamics, and traffic.

The public surface:

* :class:`~repro.scenario.spec.ScenarioSpec` — one declaratively-configured
  experiment environment (topology + dynamics timeline + traffic);
* :class:`~repro.scenario.topology.TopologySpec` — region sets, delay
  matrices, placement, and per-region bandwidth;
* the dynamics events (:class:`Partition`, :class:`RegionOutage`,
  :class:`Churn`, and :mod:`repro.sim.faults`'s :class:`DegradationSpec`
  and :class:`LossBurstSpec`);
* the named-scenario registry (:func:`get_scenario`,
  :func:`register_scenario`, :func:`available_scenarios`).
"""

from repro.scenario.dynamics import (
    Churn,
    DynamicsEvent,
    Partition,
    RegionOutage,
    resolve_dynamics,
)
from repro.scenario.registry import (
    available_scenarios,
    get_scenario,
    register_scenario,
)
from repro.scenario.spec import ScenarioSpec, TrafficSpec
from repro.scenario.topology import TopologySpec
from repro.sim.faults import DegradationSpec, LossBurstSpec

__all__ = [
    "Churn",
    "DegradationSpec",
    "DynamicsEvent",
    "LossBurstSpec",
    "Partition",
    "RegionOutage",
    "ScenarioSpec",
    "TopologySpec",
    "TrafficSpec",
    "available_scenarios",
    "get_scenario",
    "register_scenario",
    "resolve_dynamics",
]
