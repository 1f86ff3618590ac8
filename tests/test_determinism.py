"""Dynamic complement to the DET static rules: seeded double-run determinism.

The staticcheck DET family bans nondeterminism *sources*; this test is the
runtime witness that a DES run actually is a pure function of
(config, seed) — the precondition for sharding the simulator across worker
processes with the single-process run as the equivalence oracle.

Same cell, same seed, run twice in the same process:

* identical confirmed sequence (instance, round, rank, digest, timestamp);
* identical trace digest (every ``confirm`` trace event, bit-for-bit);
* identical network/message statistics.

A different seed must *not* reproduce the trace digest (guards against the
digest accidentally hashing nothing).

The replay section extends the witness to the full *schedule* trace
(deliveries + cancellations + fault timeline): capture a run, re-execute
it, and require canonical-digest equality; a mutated trace must fail the
artifact replay check with a diagnostic naming the first divergent event.
"""

import hashlib

import pytest

from repro.bench.config import ExperimentCell
from repro.protocols.registry import build_system
from repro.sim.faults import CrashSpec, FaultConfig
from repro.sim.trace import trace_digest, trace_from_jsonable, trace_to_jsonable


def _run_cell(seed: int):
    cell = ExperimentCell(
        protocol="ladon-pbft",
        n=4,
        duration=3.0,
        environment="wan",
        batch_size=64,
        seed=seed,
        trace=True,
    )
    system = build_system(cell)
    result = system.run()
    assert result.audit is not None and result.audit.safety_ok
    confirmed_sequence = tuple(
        (
            c.block.instance,
            c.block.round,
            c.block.rank,
            c.block.payload_digest,
            c.confirmed_at,
        )
        for c in result.confirmed
    )
    trace_payload = repr(
        [
            (e.time, e.category, e.node, sorted(e.details.items()))
            for e in system.trace
        ]
    ).encode("utf-8")
    trace_digest = hashlib.sha256(trace_payload).hexdigest()
    stats = (
        result.network_stats.messages_sent,
        result.network_stats.messages_delivered,
        tuple(sorted(result.network_stats.drops_by_cause.items())),
    )
    return confirmed_sequence, trace_digest, stats


def test_double_run_same_seed_is_bit_identical():
    first_sequence, first_digest, first_stats = _run_cell(seed=7)
    second_sequence, second_digest, second_stats = _run_cell(seed=7)
    assert len(first_sequence) >= 20, "scenario too short to be meaningful"
    assert first_sequence == second_sequence
    assert first_digest == second_digest
    assert first_stats == second_stats


def test_trace_digest_actually_sees_the_run():
    """A trace digest that ignored the schedule would 'pass' forever."""
    _, digest_seed_7, _ = _run_cell(seed=7)
    sequence_seed_8, digest_seed_8, _ = _run_cell(seed=8)
    assert sequence_seed_8, "seed 8 run confirmed nothing"
    assert digest_seed_7 != digest_seed_8


def test_trace_records_confirmations_when_enabled():
    cell = ExperimentCell(
        protocol="ladon-pbft", n=4, duration=2.0, environment="lan",
        total_block_rate=16.0, trace=True,
    )
    system = build_system(cell)
    result = system.run()
    confirms = system.trace.by_category("confirm")
    assert confirms, "trace=True run recorded no confirm events"
    # every replica's orderer confirms; the observer's log matches result
    observer_confirms = [e for e in confirms if e.node == system.observer_id()]
    assert len(observer_confirms) == len(result.confirmed)


def test_trace_disabled_by_default_records_nothing():
    cell = ExperimentCell(
        protocol="ladon-pbft", n=4, duration=1.0, environment="lan", total_block_rate=16.0
    )
    system = build_system(cell)
    system.run()
    assert len(system.trace) == 0


# ---------------------------------------------------------------- replay
# The fuzzer's bit-exactness criterion: re-executing a cell reproduces the
# canonical digest of the *full* schedule trace — every delivery, every
# effective cancellation, every fault action, every confirmation.


def _cell(**overrides):
    from repro.bench.config import ExperimentCell

    base = dict(
        protocol="ladon-pbft", n=4, duration=2.0, environment="wan",
        batch_size=64, seed=11,
    )
    base.update(overrides)
    return ExperimentCell(**base)


def test_full_schedule_trace_replays_bit_exact():
    from collections import Counter

    from repro.fuzz.replay import run_cell_traced

    first_system, first_result = run_cell_traced(_cell())
    second_system, second_result = run_cell_traced(_cell())
    categories = Counter(e.category for e in first_system.trace)
    # The trace must witness the whole schedule, not just confirmations.
    assert categories["deliver"] > 100, categories
    assert categories["cancel"] > 0, categories
    assert categories["confirm"] > 0, categories
    assert first_system.trace.digest() == second_system.trace.digest()
    first_confirmed = [(c.block.instance, c.block.round, c.confirmed_at)
                       for c in first_result.confirmed]
    second_confirmed = [(c.block.instance, c.block.round, c.confirmed_at)
                        for c in second_result.confirmed]
    assert first_confirmed == second_confirmed
    assert first_confirmed, "run confirmed nothing; trace equality is vacuous"


@pytest.mark.parametrize("scenario", ["wan", "lossy-lan"])
def test_traced_run_records_every_delivery_and_matches_the_untraced_run(scenario):
    """With tracing on, the handler row holds wrappers that record each
    delivery first: one ``deliver`` record per counted delivery, and the
    run is otherwise the untraced one."""
    def run(trace):
        system = build_system(_cell(scenario=scenario, n=8, duration=6.0, trace=trace))
        result = system.run()
        confirmed = [
            (c.block.instance, c.block.round, c.block.payload_digest, c.confirmed_at)
            for c in result.confirmed
        ]
        return system, confirmed, result.network_stats

    traced, traced_confirmed, traced_stats = run(trace=True)
    _untraced, confirmed, stats = run(trace=False)
    delivered = sum(1 for event in traced.trace if event.category == "deliver")
    assert delivered == traced_stats.messages_delivered > 1000
    assert traced_confirmed == confirmed and confirmed
    assert traced_stats == stats
    if scenario == "lossy-lan":  # drops and duplicates are on the path too
        assert stats.messages_dropped and stats.messages_duplicated


def test_trace_round_trips_through_jsonable():
    from repro.fuzz.replay import run_cell_traced

    system, _result = run_cell_traced(_cell(duration=1.0))
    events = system.trace.events
    restored = trace_from_jsonable(trace_to_jsonable(events))
    assert trace_digest(restored) == trace_digest(events)


def test_crash_recover_run_traces_faults_and_replays():
    faults = FaultConfig(crashes=(CrashSpec(replica=2, at=1.0, recover_at=2.0),))
    digests = []
    for _ in range(2):
        cell = ExperimentCell(
            protocol="ladon-pbft", n=4, duration=3.0, environment="wan",
            batch_size=64, seed=3, trace=True, view_change_timeout=1.0,
        )
        system = build_system(cell, faults=faults)
        system.run()
        fault_kinds = {e.details["kind"] for e in system.trace.by_category("fault")}
        assert "crash" in fault_kinds and "recover" in fault_kinds
        # Crashing a replica cancels its pending timers through the runtime,
        # so the cancellations land in the trace too.
        assert system.trace.by_category("cancel")
        digests.append(system.trace.digest())
    assert digests[0] == digests[1]


def _small_artifact():
    from repro.fuzz.artifact import make_artifact, outcome_of
    from repro.fuzz.replay import run_cell_traced

    cell = _cell()
    system, result = run_cell_traced(cell)
    return make_artifact(cell, outcome_of(result, system.trace.events), system.trace.events)


def test_artifact_replay_is_bit_exact():
    from repro.fuzz.replay import replay_artifact

    report = replay_artifact(_small_artifact())
    assert report.ok, report.summary()


def test_mutated_digest_fails_replay_with_delivery_diagnostic():
    from repro.fuzz.replay import replay_artifact

    artifact = _small_artifact()
    artifact["expected"]["trace_digest"] = "0" * 64
    report = replay_artifact(artifact)
    assert not report.ok
    # Skeleton still matches, so the diagnostic localizes the (fabricated)
    # divergence to the delivery stream rather than claiming a bare failure.
    assert "delivery stream" in report.divergence


def test_mutated_skeleton_event_is_named_in_the_diagnostic():
    from repro.fuzz.replay import replay_artifact

    artifact = _small_artifact()
    artifact["expected"]["trace_digest"] = "0" * 64
    artifact["skeleton"][5]["t"] += 0.25
    report = replay_artifact(artifact)
    assert not report.ok
    assert "skeleton event #5" in report.divergence, report.divergence


def test_mutated_verdict_fails_replay_naming_the_field():
    from repro.fuzz.replay import replay_artifact

    artifact = _small_artifact()
    artifact["expected"]["confirmed"] += 1
    report = replay_artifact(artifact)
    assert not report.ok
    assert "verdict mismatch" in report.divergence
    assert "confirmed" in report.divergence
