"""Scenario engine: specs, topologies, dynamics, traffic, and end-to-end runs."""

import math
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.config import ExperimentCell
from repro.bench.runner import run_des_cell
from repro.bench.sweep import SweepRunner, expand_grid
from repro.protocols.registry import build_system
from repro.scenario import (
    Churn,
    DegradationSpec,
    LossBurstSpec,
    Partition,
    RegionOutage,
    ScenarioSpec,
    TopologySpec,
    TrafficSpec,
    available_scenarios,
    get_scenario,
    register_scenario,
    resolve_dynamics,
)
from repro.sim.faults import FaultConfig
from repro.sim.latency import TopologyLatency
from test_protocols_systems import result_digest

from repro.workload.generator import (
    BurstyTraffic,
    DiurnalTraffic,
    RampTraffic,
    SaturatedTraffic,
    TrafficStream,
    UniformTraffic,
    zipf_weights,
)

pytestmark = pytest.mark.scenario


# ---------------------------------------------------------------- topology
class TestTopologySpec:
    def test_wan_preset_round_robin_assignment(self):
        spec = TopologySpec.wan()
        assignment = spec.assignment(6)
        assert assignment[0] == "eu-west-3"
        assert assignment[4] == "eu-west-3"
        assert assignment[1] == "us-east-1"

    def test_wan_preset_builds_paper_model(self):
        model = TopologySpec.wan().build_latency(8)
        assert isinstance(model, TopologyLatency)
        assert len(model.regions) == 4 and model.jitter == 0.005
        assert model.min_delay(0, 1) == 0.040  # eu-west-3 -> us-east-1

    def test_lan_preset_builds_paper_model(self):
        model = TopologySpec.lan().build_latency(4)
        assert isinstance(model, TopologyLatency)
        assert model.regions == ("lan",) and model.jitter == 0.0003
        assert model.min_delay(0, 3) == 0.0005

    def test_lan_jitter_is_honoured(self):
        assert TopologySpec(kind="lan", jitter=0.001).build_latency(4).jitter == 0.001
        assert TopologySpec(kind="lan") == TopologySpec.lan()

    def test_custom_topology_builds_matrix_model(self):
        spec = TopologySpec(
            kind="custom",
            regions=("a", "b"),
            links=(("a", "b", 0.05),),
        )
        model = spec.build_latency(4)
        assert isinstance(model, TopologyLatency)

    def test_asymmetric_delays(self):
        spec = TopologySpec(
            kind="custom",
            regions=("a", "b"),
            links=(("a", "b", 0.01), ("b", "a", 0.09)),
            symmetric=False,
            jitter=0.0,
        )
        import random

        model = spec.build_latency(2)
        rng = random.Random(0)
        assert model.delay(0, 1, rng) == pytest.approx(0.01)
        assert model.delay(1, 0, rng) == pytest.approx(0.09)

    def test_explicit_placement(self):
        spec = TopologySpec(
            kind="custom",
            regions=("big", "small"),
            links=(("big", "small", 0.02),),
            placement=("big", "big", "big", "small"),
        )
        assert spec.assignment(4) == ("big", "big", "big", "small")
        assert spec.replicas_in_region("small", 4) == (3,)

    def test_per_region_bandwidth(self):
        spec = TopologySpec(
            kind="custom",
            regions=("fast", "slow"),
            links=(("fast", "slow", 0.02),),
            bandwidth_by_region=(("slow", 1_000_000.0),),
        )
        overrides = spec.node_bandwidth(4)
        # round-robin: replicas 1 and 3 land in "slow"
        assert overrides == {1: 1_000_000.0, 3: 1_000_000.0}
        assert TopologySpec.wan().node_bandwidth(4) is None

    def test_unknown_region_references_rejected(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="custom", regions=("a",), links=(("a", "zzz", 0.01),))
        with pytest.raises(ValueError):
            TopologySpec(kind="custom", regions=("a",), placement=("zzz",))
        with pytest.raises(ValueError):
            TopologySpec(kind="custom", regions=("a",), bandwidth_by_region=(("zzz", 1.0),))

    def test_delay_between_unknown_pair_raises(self):
        spec = TopologySpec(kind="custom", regions=("a", "b"), links=())
        with pytest.raises(KeyError):
            spec.delay_between("a", "b")

    def test_delay_between_uses_default_when_given(self):
        spec = TopologySpec(kind="custom", regions=("a", "b"), links=(), default_delay=0.2)
        assert spec.delay_between("a", "b") == pytest.approx(0.2)

    def test_preset_kinds_reject_custom_regions(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="wan", regions=("r1", "r2"))
        with pytest.raises(ValueError):
            TopologySpec(kind="lan", regions=("dc-1",))


# ----------------------------------------------------------------- traffic
class TestTrafficProfiles:
    def _check_cumulative_matches_rate(self, profile, horizon=30.0, steps=3000):
        """Numerically integrate rate_at and compare against cumulative."""
        dt = horizon / steps
        acc = 0.0
        for k in range(steps):
            acc += profile.rate_at((k + 0.5) * dt) * dt
        assert acc == pytest.approx(profile.cumulative(horizon), rel=1e-3)

    def test_uniform_cumulative(self):
        profile = UniformTraffic(rate_tps=1000.0)
        assert profile.cumulative(2.5) == pytest.approx(2500.0)

    def test_bursty_closed_form(self):
        self._check_cumulative_matches_rate(
            BurstyTraffic(base_tps=100.0, burst_tps=5000.0, period=7.0, burst_fraction=0.3)
        )

    def test_ramp_closed_form(self):
        self._check_cumulative_matches_rate(
            RampTraffic(start_tps=100.0, end_tps=9000.0, ramp_duration=12.0)
        )

    def test_diurnal_closed_form(self):
        self._check_cumulative_matches_rate(
            DiurnalTraffic(mean_tps=4000.0, amplitude=0.7, period=11.0)
        )

    def test_diurnal_rate_never_negative(self):
        profile = DiurnalTraffic(mean_tps=100.0, amplitude=1.0, period=10.0)
        assert min(profile.rate_at(t / 10.0) for t in range(100)) >= 0.0

    def test_saturated_is_infinite(self):
        assert math.isinf(SaturatedTraffic().cumulative(1.0))

    def test_zipf_weights_normalised_and_skewed(self):
        weights = zipf_weights(8, 1.0)
        assert sum(weights) == pytest.approx(1.0)
        assert weights[0] > weights[7]
        assert zipf_weights(4, 0.0) == pytest.approx((0.25, 0.25, 0.25, 0.25))


class TestTrafficStream:
    def test_take_caps_at_batch_size(self):
        stream = TrafficStream(UniformTraffic(rate_tps=1000.0), num_instances=1)
        count, _ = stream.take(0, now=10.0, cap=500)
        assert count == 500

    def test_take_consumes_exactly_the_arrivals(self):
        stream = TrafficStream(UniformTraffic(rate_tps=100.0), num_instances=2)
        first, _ = stream.take(0, now=1.0, cap=10_000)
        second, _ = stream.take(0, now=2.0, cap=10_000)
        # Instance 0 gets half the 100 tps stream.
        assert first == 50
        assert second == 50
        assert stream.take(0, now=2.0, cap=10_000)[0] == 0

    def test_zipf_weights_split_load(self):
        stream = TrafficStream(
            UniformTraffic(rate_tps=1000.0), num_instances=4, weights=zipf_weights(4, 1.0)
        )
        counts = [stream.take(i, now=10.0, cap=10_000)[0] for i in range(4)]
        assert counts[0] > counts[3]
        assert sum(counts) <= 10_000

    def test_submit_delay_shifts_submission_time(self):
        stream = TrafficStream(
            UniformTraffic(rate_tps=100.0), num_instances=1, submit_delay=(0.5,)
        )
        _, mean_at = stream.take(0, now=4.0, cap=1000)
        assert mean_at == pytest.approx(2.0 - 0.5)

    def test_saturated_stream_always_full(self):
        stream = TrafficStream(SaturatedTraffic(), num_instances=1)
        assert stream.take(0, now=0.5, cap=256)[0] == 256


# ---------------------------------------------------------------- dynamics
class TestDynamicsResolution:
    def test_region_partition_resolves_to_replicas(self):
        topology = TopologySpec.wan()
        config = resolve_dynamics(
            (Partition(at=5.0, groups=(("eu-west-3", "us-east-1"),
                                       ("ap-southeast-2", "ap-northeast-1")), heal_at=9.0),),
            FaultConfig(),
            topology,
            8,
        )
        assert len(config.partitions) == 1
        groups = config.partitions[0].groups
        assert groups == ((0, 1, 4, 5), (2, 3, 6, 7))

    def test_mixed_region_and_replica_members(self):
        config = resolve_dynamics(
            (Partition(at=1.0, groups=(("eu-west-3", 3), (1, 2))),),
            FaultConfig(),
            TopologySpec.wan(),
            4,
        )
        assert config.partitions[0].groups == ((0, 3), (1, 2))

    def test_region_outage_crashes_all_region_replicas(self):
        config = resolve_dynamics(
            (RegionOutage(region="ap-northeast-1", at=2.0, recover_at=6.0),),
            FaultConfig(),
            TopologySpec.wan(),
            8,
        )
        assert sorted(spec.replica for spec in config.crashes) == [3, 7]
        assert all(spec.recover_at == 6.0 for spec in config.crashes)

    def test_churn_unrolls_rolling_crashes(self):
        config = resolve_dynamics(
            (Churn(start=2.0, period=4.0, downtime=1.0, cycles=3),),
            FaultConfig(),
            TopologySpec.lan(),
            4,
        )
        assert [spec.at for spec in config.crashes] == [2.0, 6.0, 10.0]
        assert [spec.replica for spec in config.crashes] == [1, 2, 3]
        assert all(spec.recover_at == spec.at + 1.0 for spec in config.crashes)

    def test_churn_downtime_must_fit_period(self):
        with pytest.raises(ValueError):
            Churn(period=2.0, downtime=2.0)

    def test_loss_and_degradation_pass_through(self):
        burst = LossBurstSpec(at=1.0, until=2.0, drop_probability=0.3)
        degradation = DegradationSpec(at=3.0, until=4.0, factor=2.0)
        config = resolve_dynamics(
            (burst, degradation), FaultConfig(), TopologySpec.lan(), 4
        )
        assert config.loss_bursts == (burst,)
        assert config.degradations == (degradation,)

    def test_unknown_partition_region_rejected(self):
        with pytest.raises(ValueError):
            resolve_dynamics(
                (Partition(at=1.0, groups=(("nowhere",),)),),
                FaultConfig(),
                TopologySpec.wan(),
                4,
            )

    def test_base_faults_preserved(self):
        base = FaultConfig.with_stragglers(1, 4, seed=0)
        config = resolve_dynamics(
            (LossBurstSpec(at=1.0, until=2.0),), base, TopologySpec.lan(), 4
        )
        assert config.stragglers == base.stragglers


# ---------------------------------------------------------------- registry
class TestRegistry:
    def test_builtins_present(self):
        names = available_scenarios()
        for expected in ("wan", "lan", "wan-partition", "regional-outage",
                         "flash-crowd", "asymmetric-wan", "lossy-lan", "churn"):
            assert expected in names
        assert len(names) >= 8

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            get_scenario("does-not-exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_scenario(get_scenario("wan"))

    def test_specs_are_hashable_and_reprable(self):
        for name in available_scenarios():
            spec = get_scenario(name)
            hash(spec)
            assert name in repr(spec) or spec.name == name


# ------------------------------------------------------------ one topology path
def _digest_system(n=4, scenario=None):
    cell = ExperimentCell(
        protocol="ladon-pbft", n=n, batch_size=64, total_block_rate=8.0,
        duration=6.0, environment="lan", seed=1, epoch_length=16,
    )
    return build_system(cell, scenario=scenario)


#: cell -> (build kwargs, full-result digest computed at the parent of PR 24, where
#: the presets built ``WanLatency``/``LanLatency`` and a custom topology took
#: the per-receiver ``delay()`` path instead of the batched fan-out)
PINNED_TOPOLOGY_RESULTS = {
    "environment-lan-n4": (
        {},
        "45beeafbad0a7534b46385e8d3d83f68256d17abb96fd6c142ac6362c68af7b5",
    ),
    "asymmetric-wan-n6": (
        dict(n=6, scenario=get_scenario("asymmetric-wan")),
        "888017b7158f33837732db7d0682694dc087eb10c91c4ac9ebed71e1ce26f98f",
    ),
    "lossy-lan-n4": (
        dict(scenario=get_scenario("lossy-lan")),
        "d7daade774e2aa9683147b3b791d404ef581d21caaadff0a3190e38a7ac981a5",
    ),
}


class TestOneTopologyPath:
    @pytest.mark.parametrize("cell", sorted(PINNED_TOPOLOGY_RESULTS))
    def test_full_result_digest_is_pinned(self, cell):
        kwargs, expected = PINNED_TOPOLOGY_RESULTS[cell]
        assert result_digest(_digest_system(**kwargs).run()) == expected

    def test_environment_names_the_preset_and_is_never_stale(self):
        wan = ExperimentCell(protocol="ladon-pbft", n=16, environment="wan")
        assert wan.resolve().scenario == ScenarioSpec.preset("wan")
        lan = replace(wan, environment="lan").resolve().scenario.build_latency(16)
        assert lan.regions == ("lan",) and lan.jitter == 0.0003
        assert lan.min_delay(0, 5) == 0.0005

    def test_no_second_path_survives(self):
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        assert "scenario is not None" not in (src / "protocols" / "base.py").read_text()
        for path in src.rglob("*.py"):
            text = path.read_text()
            assert "WanLatency" not in text and "LanLatency" not in text, path
        for path in (src / "shard").glob("*.py"):
            assert 'getattr(latency, "region_of"' not in path.read_text(), path


# --------------------------------------------------------------- end-to-end
class TestScenarioRuns:
    def test_partition_timeline_changes_confirmed_output(self):
        scenario = ScenarioSpec(
            name="test-split",
            topology=TopologySpec.lan(),
            dynamics=(Partition(at=2.0, groups=((0, 1), (2, 3)), heal_at=4.0),),
        )
        # In-flight rounds whose messages the partition swallowed only
        # recover through a view change, so give the run explicit timeouts.
        cell = ExperimentCell(protocol="ladon-pbft", n=4, batch_size=64,
                              total_block_rate=8.0, duration=14.0, seed=1, environment="lan",
                              propose_timeout=3.0, view_change_timeout=3.0)
        static = build_system(cell).run()
        split = build_system(cell, scenario=scenario).run()
        # No group holds a quorum (3 of 4) during the partition, so the run
        # confirms measurably fewer blocks than the static baseline.
        assert split.metrics.confirmed_blocks < static.metrics.confirmed_blocks
        assert [(c.sn, c.block.block_id) for c in split.confirmed] != [
            (c.sn, c.block.block_id) for c in static.confirmed
        ]
        kinds = [kind for _, kind, _ in split.dynamics_log]
        assert kinds == ["partition", "heal"]
        # And the run makes progress again after the heal.
        assert any(c.confirmed_at > 4.0 for c in split.confirmed)

    def test_progress_stalls_during_partition_window(self):
        scenario = ScenarioSpec(
            name="test-stall",
            topology=TopologySpec.lan(),
            dynamics=(Partition(at=2.0, groups=((0, 1), (2, 3)), heal_at=5.0),),
        )
        cell = ExperimentCell(
            protocol="ladon-pbft", n=4, batch_size=64, total_block_rate=8.0,
            duration=8.0, seed=1, environment="lan",
        )
        result = build_system(cell, scenario=scenario).run()
        in_window = [c for c in result.confirmed if 2.3 < c.confirmed_at < 5.0]
        assert not in_window

    @pytest.mark.parametrize("name", [
        "wan-partition", "regional-outage", "flash-crowd",
        "asymmetric-wan", "lossy-lan", "churn",
    ])
    def test_named_scenarios_run_end_to_end(self, name):
        cell = ExperimentCell(
            protocol="ladon-pbft", n=4, duration=8.0, batch_size=64,
            total_block_rate=8.0, scenario=name,
        )
        result = run_des_cell(cell)
        assert result.metrics.confirmed_blocks > 0
        assert result.metrics.throughput_tps >= 0

    def test_traffic_profile_limits_batch_fill(self):
        # A low uniform rate must confirm far fewer transactions than the
        # saturated default with the same block rate.
        scenario = ScenarioSpec(
            name="test-light-load",
            topology=TopologySpec.lan(),
            traffic=TrafficSpec(profile=UniformTraffic(rate_tps=100.0)),
        )
        cell = ExperimentCell(protocol="ladon-pbft", n=4, batch_size=256,
                              total_block_rate=8.0, duration=8.0, seed=1, environment="lan")
        light = build_system(cell, scenario=scenario).run()
        saturated = build_system(cell).run()
        assert 0 < light.metrics.confirmed_txs < 0.3 * saturated.metrics.confirmed_txs
        # Confirmed transactions roughly track the offered load.
        assert light.metrics.confirmed_txs <= 100.0 * 8.0 * 1.1

    def test_heterogeneous_bandwidth_slows_edge_sender(self):
        spec = get_scenario("asymmetric-wan")
        config = spec.network_config(n=6)
        assert config.node_bandwidth  # edge replicas throttled
        edge = spec.topology.replicas_in_region("edge-sat", 6)
        for replica in edge:
            assert config.bandwidth_of(replica) == pytest.approx(12_500_000.0)
        assert config.bandwidth_of(0) == pytest.approx(125_000_000.0)


class TestScenarioSweep:
    def test_scenario_grid_through_sweep_runner(self):
        cells = expand_grid(
            {"scenario": ("lan", "lossy-lan"), "protocol": ("ladon-pbft", "iss-pbft")},
            defaults=dict(n=4, duration=6.0, batch_size=64, total_block_rate=8.0),
        )
        rows = SweepRunner(workers=1).run(cells)
        assert len(rows) == 4
        assert all(row["confirmed_blocks"] > 0 for row in rows)

    def test_scenario_on_analytical_engine_rejected(self):
        with pytest.raises(ValueError, match="DES engine"):
            ExperimentCell(
                protocol="ladon-pbft", n=4, engine="analytical", scenario="lossy-lan"
            )

    def test_scenario_cells_have_distinct_cache_keys(self):
        from repro.bench.sweep import cell_key

        plain = ExperimentCell(protocol="ladon-pbft", n=4)
        named = ExperimentCell(protocol="ladon-pbft", n=4, scenario="lossy-lan")
        other = ExperimentCell(protocol="ladon-pbft", n=4, scenario="wan-partition")
        assert len({cell_key(plain), cell_key(named), cell_key(other)}) == 3

    def test_scenario_cell_label_and_environment(self):
        cell = ExperimentCell(protocol="ladon-pbft", n=4, scenario="lossy-lan")
        assert cell.label().endswith("lossy-lan")
        assert cell.effective_environment() == "lan"
        assert cell.block_rate() == 32.0
