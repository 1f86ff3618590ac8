"""Named scenario registry.

Built-in scenarios cover the axes the paper's evaluation leaves fixed:
partitions, regional outages, flash crowds, asymmetric links, lossy
transports, rolling churn, and diurnal load.  ``wan`` and ``lan`` are the
paper's two environments as thin presets.  Register custom scenarios with
:func:`register_scenario`; every named scenario runs through
``python -m repro.bench scenario run|sweep`` and the :class:`~repro.bench.
sweep.SweepRunner` grid machinery unchanged.
"""

from __future__ import annotations

from typing import Dict, List

from repro.adversary.registry import get_adversary
from repro.scenario.dynamics import Churn, Partition, RegionOutage
from repro.scenario.spec import ScenarioSpec, TrafficSpec
from repro.scenario.topology import TopologySpec
from repro.sim.faults import DegradationSpec, LossBurstSpec
from repro.workload.generator import BurstyTraffic, DiurnalTraffic, RampTraffic

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, overwrite: bool = False) -> ScenarioSpec:
    """Add ``spec`` to the registry under ``spec.name``."""
    if spec.name in _REGISTRY and not overwrite:
        raise ValueError(f"scenario {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(available_scenarios())}"
        ) from None


def available_scenarios() -> List[str]:
    return sorted(_REGISTRY)


# ------------------------------------------------------------------ built-ins
register_scenario(ScenarioSpec.preset("wan"))
register_scenario(ScenarioSpec.preset("lan"))

register_scenario(
    ScenarioSpec(
        name="wan-partition",
        description=(
            "4-region WAN; the two Asia-Pacific regions are cut off from "
            "Europe/America at t=8s and the partition heals at t=16s"
        ),
        dynamics=(
            Partition(
                at=8.0,
                groups=(
                    ("eu-west-3", "us-east-1"),
                    ("ap-southeast-2", "ap-northeast-1"),
                ),
                heal_at=16.0,
            ),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="regional-outage",
        description=(
            "4-region WAN; every replica in Tokyo crashes at t=6s and "
            "recovers at t=14s, followed by a 2x congestion window while "
            "the region catches up.  propose_timeout is unarmed, so a "
            "crashed leader's instance waits for it to come back: this "
            "measures the wait, not a view change"
        ),
        dynamics=(
            RegionOutage(region="ap-northeast-1", at=6.0, recover_at=14.0),
            DegradationSpec(at=14.0, until=20.0, factor=2.0),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="flash-crowd",
        description=(
            "4-region WAN; load spikes 20x in periodic bursts, arrivals are "
            "Zipf-skewed across instances, and the crowd submits from Europe"
        ),
        traffic=TrafficSpec(
            profile=BurstyTraffic(
                base_tps=10_000.0, burst_tps=200_000.0, period=10.0, burst_fraction=0.25
            ),
            instance_zipf_s=0.8,
            client_placement=(("eu-west-3", 3.0), ("us-east-1", 1.0)),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="asymmetric-wan",
        description=(
            "3-region custom WAN with asymmetric link delays (a congested "
            "return path out of the edge region) and a bandwidth-starved "
            "edge uplink"
        ),
        topology=TopologySpec(
            kind="custom",
            regions=("core-eu", "core-us", "edge-sat"),
            links=(
                ("core-eu", "core-us", 0.040),
                ("core-us", "core-eu", 0.040),
                ("core-eu", "edge-sat", 0.120),
                ("edge-sat", "core-eu", 0.280),
                ("core-us", "edge-sat", 0.150),
                ("edge-sat", "core-us", 0.310),
            ),
            symmetric=False,
            bandwidth_by_region=(("edge-sat", 12_500_000.0),),  # 100 Mbps uplink
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="lossy-lan",
        description=(
            "single-datacenter LAN with 1% steady message loss, 2% duplicate "
            "delivery, and a 15% loss burst between t=5s and t=8s"
        ),
        topology=TopologySpec.lan(),
        drop_probability=0.01,
        duplicate_probability=0.02,
        dynamics=(LossBurstSpec(at=5.0, until=8.0, drop_probability=0.15),),
    )
)

register_scenario(
    ScenarioSpec(
        name="churn",
        description=(
            "4-region WAN with rolling node churn: one replica down at a "
            "time, a new crash every 5s from t=4s.  propose_timeout is "
            "unarmed, so a crashed leader's instance waits for it to come "
            "back: this measures the wait, not a view change"
        ),
        dynamics=(Churn(start=4.0, period=5.0, downtime=2.5, cycles=4),),
    )
)

register_scenario(
    ScenarioSpec(
        name="diurnal-wan",
        description=(
            "4-region WAN under a sinusoidal day/night load cycle (one "
            "60s 'day', +/-80% around the mean)"
        ),
        traffic=TrafficSpec(
            profile=DiurnalTraffic(mean_tps=60_000.0, amplitude=0.8, period=60.0)
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="ramp-up",
        description="4-region WAN; load ramps linearly from 1k to 120k tps over 20s",
        traffic=TrafficSpec(
            profile=RampTraffic(start_tps=1_000.0, end_tps=120_000.0, ramp_duration=20.0)
        ),
    )
)

# ----------------------------------------------------------- adversarial
# One scenario per catalog attack (see ``python -m repro.bench adversary
# list``), so sweeps can attribute metric shifts to a single behaviour.
# All of them keep the paper's 4-region WAN topology and saturated load;
# the only change versus the honest ``wan`` baseline is the adversary.
register_scenario(
    ScenarioSpec(
        name="byz-equivocation",
        description=(
            "4-region WAN; replica 3 equivocates on its instance: honest "
            "odd-id replicas receive a conflicting fork, stall on instance "
            "3, and the even-side quorum loses all slack (latency rises); "
            "the auditor confirms safety at n = 3f+1 (not at n=5: see "
            "ROADMAP, 'Quorums that share an honest replica at every n')"
        ),
        adversary=get_adversary("equivocation"),
    )
)

register_scenario(
    ScenarioSpec(
        name="byz-silence",
        description=(
            "4-region WAN; from t=4s replica 3 censors its proposals "
            "towards replica 0: the observer's instance-3 partial commits "
            "stop, its confirmed log wedges at the confirmation bar, and "
            "observed throughput collapses"
        ),
        adversary=get_adversary("silence-observer"),
    )
)

register_scenario(
    ScenarioSpec(
        name="byz-delayed-votes",
        description=(
            "4-region WAN; replica 3 holds every proposal and vote for 3s "
            "— just under the view-change timeout — so its instance crawls "
            "without a single view change firing"
        ),
        adversary=get_adversary("delayed-votes"),
    )
)

register_scenario(
    ScenarioSpec(
        name="byz-rank",
        description=(
            "4-region WAN; replica 3 is the paper's Byzantine straggler "
            "(Fig. 7): 1/10 rate, empty blocks, lowest-2f+1 rank reports"
        ),
        adversary=get_adversary("rank-manipulation"),
    )
)
