"""Adversary subsystem: catalog, interceptor, migration, and end-to-end audit."""

import pickle
import warnings

import pytest

from repro.adversary import (
    AdversarySpec,
    DelayedVotes,
    Equivocation,
    RankManipulation,
    Silence,
    available_adversaries,
    forge_message,
    forged_digest,
    get_adversary,
    message_kind,
    register_adversary,
)
from repro.adversary.attacks import MESSAGE_KINDS
from repro.bench.config import ExperimentCell
from repro.bench.runner import run_des_cell
from repro.bench.sweep import cell_key
from repro.consensus.base import CommitLog
from repro.consensus.messages import (
    CheckpointMessage,
    Commit,
    HotStuffProposal,
    PrePrepare,
    Prepare,
)
from repro.metrics.auditor import audit_snapshot
from repro.protocols.registry import build_system
from repro.runtime.des import DESRuntime
from repro.scenario.registry import available_scenarios, get_scenario
from repro.sim.faults import FaultConfig, FaultInjector, StragglerSpec
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.simulator import Simulator

from test_protocols_systems import result_digest


# --------------------------------------------------------------- catalog
class TestAttackSpecs:
    def test_attack_needs_replicas(self):
        with pytest.raises(ValueError):
            Equivocation(replicas=())

    def test_attack_rejects_duplicate_replicas(self):
        with pytest.raises(ValueError):
            Silence(replicas=(1, 1))

    def test_attack_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            Silence(replicas=(1,), start=5.0, until=5.0)

    def test_silence_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Silence(replicas=(1,), kinds=("gossip",))

    def test_delay_must_be_positive(self):
        with pytest.raises(ValueError):
            DelayedVotes(replicas=(1,), delay=0.0)

    def test_rank_manipulation_rejects_window(self):
        with pytest.raises(ValueError):
            RankManipulation(replicas=(1,), start=2.0)
        with pytest.raises(ValueError):
            RankManipulation(replicas=(1,), slowdown=0.5)

    def test_labels_are_kebab_case(self):
        assert DelayedVotes(replicas=(1,)).label == "delayed-votes"
        assert RankManipulation(replicas=(1,)).label == "rank-manipulation"

    def test_message_kind_classification(self):
        pre = PrePrepare(sender=0, instance=0, view=0, round=1)
        assert message_kind(pre) == "proposal"
        assert message_kind(Prepare(sender=0, instance=0, view=0, round=1)) == "vote"
        assert (
            message_kind(CheckpointMessage(sender=0, instance=-1, view=0, round=0))
            == "checkpoint"
        )
        assert message_kind(object()) is None
        assert "vote" in MESSAGE_KINDS

    def test_forged_digest_is_deterministic_and_different(self):
        assert forged_digest("abc") == forged_digest("abc")
        assert forged_digest("abc") != "abc"

    def test_forge_message_rewrites_pbft_only(self):
        pre = PrePrepare(sender=0, instance=0, view=0, round=1, digest="d")
        forged = forge_message(pre)
        assert forged.digest == forged_digest("d")
        assert forged.round == pre.round and forged.txs == pre.txs
        vote = Commit(sender=1, instance=0, view=0, round=1, digest="d")
        assert forge_message(vote).digest == forged_digest("d")
        # chained HotStuff embeds the parent QC: digest forks are left alone
        hs = HotStuffProposal(sender=0, instance=0, view=0, round=2, digest="d")
        assert forge_message(hs) is hs


class TestAdversarySpec:
    def test_needs_attacks(self):
        with pytest.raises(ValueError):
            AdversarySpec(attacks=())

    def test_replica_union_and_lowering(self):
        spec = AdversarySpec(
            attacks=(
                Equivocation(replicas=(3,)),
                RankManipulation(replicas=(1, 2), slowdown=5.0),
            )
        )
        assert spec.replicas() == frozenset({1, 2, 3})
        assert spec.rank_manipulators() == frozenset({1, 2})
        stragglers = spec.straggler_specs()
        assert [s.replica for s in stragglers] == [1, 2]
        assert all(s.slowdown == 5.0 for s in stragglers)

    def test_merge_concatenates_attacks(self):
        a = AdversarySpec(attacks=(Equivocation(replicas=(3,)),), name="a")
        b = AdversarySpec(attacks=(Silence(replicas=(2,)),), name="b")
        merged = a.merge(b)
        assert merged.replicas() == frozenset({2, 3})
        assert merged.name == "b"

    def test_validate_for_rejects_out_of_range(self):
        spec = AdversarySpec(attacks=(Silence(replicas=(7,)),))
        with pytest.raises(ValueError):
            spec.validate_for(4)
        spec.validate_for(8)

    def test_validate_for_rejects_inert_equivocation(self):
        # conspirators covering every odd id leave an empty forged world —
        # the attack would silently do nothing, so it is rejected up front
        spec = AdversarySpec(attacks=(Equivocation(replicas=(1, 3)),))
        with pytest.raises(ValueError, match="inert"):
            spec.validate_for(4)
        spec.validate_for(6)  # n=6 leaves honest replica 5 in the forged world

    def test_registry_builtins_resolve_and_fit_n4(self):
        names = available_adversaries()
        assert {
            "equivocation",
            "equivocation-colluding",
            "silence-observer",
            "delayed-votes",
            "rank-manipulation",
        } <= set(names)
        for name in names:
            get_adversary(name).validate_for(4)

    def test_registry_unknown_and_duplicate(self):
        with pytest.raises(KeyError):
            get_adversary("nope")
        with pytest.raises(ValueError):
            register_adversary(get_adversary("equivocation"))

    def test_byz_scenarios_registered_with_adversaries(self):
        byz = [name for name in available_scenarios() if name.startswith("byz-")]
        assert len(byz) >= 4
        for name in byz:
            spec = get_scenario(name)
            assert spec.adversary is not None
            assert "adversary" in spec.describe()


# ----------------------------------------------------------- interceptor
class _Recorder(Node):
    def __init__(self, node_id, runtime):
        super().__init__(node_id, runtime)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message))


def _harness(n=4, seed=0):
    simulator = Simulator(seed=seed)
    network = Network(simulator)
    runtime = DESRuntime(simulator=simulator, network=network)
    nodes = {i: _Recorder(i, runtime) for i in range(n)}
    return simulator, network, nodes


class TestInterceptor:
    def _install(self, simulator, nodes, *attacks):
        spec = AdversarySpec(attacks=tuple(attacks))
        log = []
        interceptors = spec.install(simulator, nodes, event_log=log)
        return interceptors, log

    def test_silence_suppresses_matching_messages(self):
        simulator, _, nodes = _harness()
        interceptors, _ = self._install(
            simulator, nodes, Silence(replicas=(3,), targets=(0,), kinds=("vote",))
        )
        vote = Prepare(sender=3, instance=1, view=0, round=1, digest="d")
        pre = PrePrepare(sender=3, instance=3, view=0, round=1, digest="d")
        simulator.run(until=0.001)  # fire the activation event at t=0
        nodes[3].multicast((0,), vote)
        nodes[3].multicast((1,), vote)
        nodes[3].multicast((0,), pre)  # not a vote: passes
        simulator.run(until=1.0)
        assert not any(isinstance(m, Prepare) for _, m in nodes[0].received)
        assert any(isinstance(m, Prepare) for _, m in nodes[1].received)
        assert any(isinstance(m, PrePrepare) for _, m in nodes[0].received)
        assert interceptors[3].suppressed == 1

    def test_silence_per_instance_censorship(self):
        simulator, _, nodes = _harness()
        interceptors, _ = self._install(
            simulator, nodes, Silence(replicas=(3,), instances=(2,))
        )
        simulator.run(until=0.001)
        nodes[3].multicast((0,), Prepare(sender=3, instance=2, view=0, round=1))
        nodes[3].multicast((0,), Prepare(sender=3, instance=1, view=0, round=1))
        simulator.run(until=1.0)
        assert [m.instance for _, m in nodes[0].received] == [1]
        assert interceptors[3].suppressed == 1

    def test_delayed_votes_arrive_late(self):
        simulator, _, nodes = _harness()
        interceptors, _ = self._install(
            simulator, nodes, DelayedVotes(replicas=(3,), delay=2.0)
        )
        simulator.run(until=0.001)
        nodes[3].multicast((0,), Prepare(sender=3, instance=0, view=0, round=1))
        simulator.run(until=1.0)
        assert nodes[0].received == []
        simulator.run(until=3.5)
        assert len(nodes[0].received) == 1
        assert interceptors[3].delayed == 1

    def test_equivocation_forks_only_forged_world(self):
        simulator, _, nodes = _harness()
        interceptors, _ = self._install(simulator, nodes, Equivocation(replicas=(3,)))
        simulator.run(until=0.001)
        pre = PrePrepare(sender=3, instance=3, view=0, round=1, digest="d")
        for receiver in range(3):
            nodes[3].multicast((receiver,), pre)
        # votes on the adversary's own instance are forked the same way
        nodes[3].multicast((1,), Prepare(sender=3, instance=3, view=0, round=1, digest="d"))
        # votes on an honestly-led instance are NOT touched
        nodes[3].multicast((1,), Prepare(sender=3, instance=0, view=0, round=1, digest="h"))
        simulator.run(until=1.0)
        by_receiver = {r: [m for _, m in nodes[r].received] for r in range(3)}
        assert by_receiver[0][0].digest == "d"  # honest even: original world
        assert by_receiver[2][0].digest == "d"
        forged_pre = by_receiver[1][0]
        assert forged_pre.digest == forged_digest("d")  # honest odd: forked
        votes = [m for m in by_receiver[1] if isinstance(m, Prepare)]
        assert {v.digest for v in votes} == {forged_digest("d"), "h"}
        assert interceptors[3].forged == 2

    def test_attack_window_toggles_on_timeline(self):
        simulator, _, nodes = _harness()
        interceptors, log = self._install(
            simulator, nodes, Silence(replicas=(3,), start=2.0, until=4.0)
        )
        vote = Prepare(sender=3, instance=0, view=0, round=1)
        nodes[3].multicast((0,), vote)  # before the window: delivered
        simulator.run(until=3.0)
        nodes[3].multicast((0,), vote)  # inside the window: suppressed
        simulator.run(until=5.0)
        nodes[3].multicast((0,), vote)  # after the window: delivered
        simulator.run(until=6.0)
        assert len(nodes[0].received) == 2
        assert interceptors[3].suppressed == 1
        kinds = [kind for _, kind, _ in log]
        assert kinds == ["attack:silence", "attack:silence-end"]

    def test_fault_injector_arms_interceptors(self):
        simulator, network, nodes = _harness()
        config = FaultConfig(
            adversary=AdversarySpec(attacks=(Silence(replicas=(2,)),))
        )
        injector = FaultInjector(nodes[0].runtime, nodes, config)
        injector.arm()
        assert set(injector.interceptors) == {2}
        assert nodes[2].interceptor is injector.interceptors[2]
        assert nodes[0].interceptor is None
        assert set(injector.adversary_stats()) == {"suppressed", "delayed", "forged"}


# ------------------------------------------------------------- migration
class TestByzantineMigration:
    """``with_stragglers(byzantine=True)`` *is* the catalog form."""

    def test_catalog_form_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            FaultConfig(
                adversary=AdversarySpec(
                    attacks=(RankManipulation(replicas=(2,), slowdown=5.0),)
                )
            )
            FaultConfig.with_stragglers(1, 4, byzantine=True)

    def test_catalog_and_legacy_views_are_equivalent(self):
        sampled = FaultConfig.with_stragglers(1, 4, slowdown=5.0, byzantine=True, seed=0)
        (replica,) = sampled.straggler_map()
        catalog = FaultConfig(
            adversary=AdversarySpec(
                attacks=(RankManipulation(replicas=(replica,), slowdown=5.0),)
            )
        )
        assert sampled == catalog
        assert not sampled.stragglers
        assert catalog.is_straggler(replica)
        assert catalog.is_byzantine(replica)
        assert catalog.slowdown_of(replica) == 5.0
        assert catalog.straggler_count() == 1
        assert catalog.adversarial_replicas() == frozenset({replica})

    def test_rank_manipulation_run_matches_legacy_byte_for_byte(self):
        def run(faults):
            cell = ExperimentCell(
                protocol="ladon-pbft",
                n=4,
                batch_size=128,
                total_block_rate=16.0,
                environment="lan",
                duration=6.0,
                seed=5,
            )
            return result_digest(build_system(cell, faults=faults).run())

        # Full-result digest of this catalog run at the parent of PR 24 (its
        # throughput, latency and confirmed log there equalled the
        # ``StragglerSpec(byzantine=True)`` run's).
        pinned = "8b01dc06eab84bf9ab15dd74dddf5cf419f4113fcef614c2ee0936f44652bd31"
        catalog = FaultConfig(
            adversary=AdversarySpec(
                attacks=(RankManipulation(replicas=(3,), slowdown=10.0),)
            )
        )
        sampled = FaultConfig.with_stragglers(1, 4, slowdown=10.0, byzantine=True, seed=0)
        assert sampled == catalog  # seed 0 picks replica 3
        assert run(catalog) == pinned
        assert run(sampled) == pinned


# ------------------------------------------------------------- cells
class TestExperimentCellAdversary:
    def test_adversary_changes_cache_key_and_label(self):
        honest = ExperimentCell(protocol="ladon-pbft", n=4)
        attacked = ExperimentCell(protocol="ladon-pbft", n=4, adversary="equivocation")
        assert cell_key(honest) != cell_key(attacked)
        assert "adv:equivocation" in attacked.label()

    def test_adversary_spec_resolution(self):
        cell = ExperimentCell(protocol="ladon-pbft", n=4, adversary="delayed-votes")
        faults = cell.resolve().faults
        assert faults.adversary is not None
        assert faults.adversary.name == "delayed-votes"
        assert ExperimentCell(protocol="ladon-pbft", n=4).adversary_spec() is None

    def test_analytical_engine_rejects_adversaries(self):
        with pytest.raises(ValueError, match="adversary"):
            ExperimentCell(
                protocol="ladon-pbft", n=16, adversary="equivocation", engine="analytical"
            )

    def test_scenario_merges_adversary_into_faults(self):
        spec = get_scenario("byz-equivocation")
        faults = spec.fault_config(FaultConfig(), n=4)
        assert faults.adversary is not None
        assert 3 in faults.adversary.replicas()


# ----------------------------------------------------- end-to-end audit
_RUNS = {}


def _run_scenario_cell(scenario=None, adversary=None, protocol="ladon-pbft"):
    key = (scenario, adversary, protocol)
    if key not in _RUNS:
        cell = ExperimentCell(
            protocol=protocol,
            n=4,
            duration=12.0,
            batch_size=256,
            scenario=scenario,
            adversary=adversary,
        )
        _RUNS[key] = run_des_cell(cell)
    return _RUNS[key]


@pytest.mark.scenario
class TestAttacksShiftMetricsAndAudit:
    """Acceptance: every catalog attack shifts a metric vs. the honest
    baseline in a registry scenario while the auditor certifies safety for
    f < n/3, and flags the violation for f >= n/3 equivocation."""

    def test_honest_baseline_is_safe_and_live(self):
        result = _run_scenario_cell("wan")
        assert result.audit.safety_ok
        assert result.audit.live
        assert result.metrics.extra["safety_violations"] == 0.0

    def test_equivocation_shifts_metrics_but_stays_safe(self):
        baseline = _run_scenario_cell("wan")
        result = _run_scenario_cell("byz-equivocation")
        # the forged-world replicas stall on the attacked instance...
        assert result.audit.stalled_instances == (3,)
        assert result.metrics.extra["stalled_instances"] == 1.0
        assert result.metrics.extra["adversary_forged"] > 0
        # ...and the observer loses quorum slack on it
        assert result.metrics.throughput_tps < baseline.metrics.throughput_tps
        # but with f < n/3 safety holds and the auditor confirms it
        assert result.audit.safety_ok
        assert 3 not in result.audit.honest_replicas

    def test_silence_censors_the_observer(self):
        baseline = _run_scenario_cell("wan")
        result = _run_scenario_cell("byz-silence")
        assert result.metrics.extra["adversary_suppressed"] > 0
        # the observer's confirmed log wedges shortly after t=4s
        assert result.metrics.throughput_tps < 0.7 * baseline.metrics.throughput_tps
        assert result.audit.safety_ok

    def test_delayed_votes_raise_latency_without_view_changes(self):
        baseline = _run_scenario_cell("wan")
        result = _run_scenario_cell("byz-delayed-votes")
        assert result.metrics.extra["adversary_delayed"] > 0
        assert (
            result.metrics.average_latency_s
            > 1.5 * baseline.metrics.average_latency_s
        )
        # the whole point of the attack: stay under the timeout
        assert result.view_change_times == []
        assert result.audit.safety_ok

    def test_rank_manipulation_costs_throughput(self):
        baseline = _run_scenario_cell("wan")
        result = _run_scenario_cell("byz-rank")
        assert result.metrics.stragglers == 1
        assert result.metrics.throughput_tps < baseline.metrics.throughput_tps
        assert result.audit.safety_ok

    def test_colluding_equivocation_breaks_safety_and_is_reported(self):
        result = _run_scenario_cell("wan", adversary="equivocation-colluding")
        assert not result.audit.safety_ok
        assert result.metrics.extra["safety_violations"] > 0
        kinds = {violation.kind for violation in result.audit.violations}
        assert "conflicting-commit" in kinds
        # only honest replicas are audited; both conspirators are excluded
        assert result.audit.honest_replicas == (0, 1)
        assert result.audit.adversarial_replicas == (2, 3)

    def test_colluding_equivocation_is_caught_on_the_shipped_commit_logs(self):
        """The negative control through the columnar commit logs, as a shard
        worker ships them: pickled, then audited."""
        cell = ExperimentCell(
            protocol="ladon-pbft", n=4, duration=12.0, batch_size=256,
            scenario="wan", adversary="equivocation-colluding",
        )
        system = build_system(cell)
        result = system.run()
        snapshot = system.snapshot()
        assert all(
            isinstance(log, CommitLog)
            for logs in snapshot.commit_logs.values()
            for log in logs.values()
        )
        shipped = pickle.loads(pickle.dumps(snapshot.commit_logs))
        assert {r: {i: list(log) for i, log in logs.items()}
                for r, logs in shipped.items()} == {
            r: {i: list(log) for i, log in logs.items()}
            for r, logs in snapshot.commit_logs.items()
        }
        snapshot.commit_logs = shipped
        report = audit_snapshot(snapshot, system)
        assert report == result.audit
        assert "conflicting-commit" in {v.kind for v in report.violations}

    def test_attack_windows_show_in_dynamics_log(self):
        result = _run_scenario_cell("byz-silence")
        kinds = [kind for _, kind, _ in result.dynamics_log]
        assert "attack:silence" in kinds
