"""End-to-end fuzz campaigns (``pytest -m fuzz``).

The acceptance demo for the fuzzer: a historical bug (the wedged proposal
cursor after a view change, planted by :mod:`planted_bugs`) must be *found*
by a bounded campaign, *shrunk* to a small decision vector, and the
resulting artifact must *replay* bit-exactly — while the same campaign
against the faithful protocol stays clean.
"""

import pytest

from repro.fuzz.artifact import artifact_cell, is_violation, read_artifact
from repro.fuzz.campaign import (
    FuzzConfig,
    cell_breaks_safety,
    cell_violates,
    predicate_for,
    run_campaign,
)
from repro.fuzz.replay import replay_artifact

from planted_bugs import WEDGED_VIEW_CURSOR_ARTIFACT, plant_wedged_view_cursor

pytestmark = pytest.mark.fuzz


def test_predicate_for_preserves_the_violation_class():
    # A liveness finding shrinks under "any violation" ...
    assert predicate_for({"safety_ok": True}) is cell_violates
    # ... but a safety finding must not be allowed to degrade into a stall.
    assert predicate_for({"safety_ok": False}) is cell_breaks_safety


def test_campaign_finds_shrinks_and_replays_the_wedged_cursor_bug(monkeypatch):
    plant_wedged_view_cursor(monkeypatch)
    config = FuzzConfig(seeds=4)
    report = run_campaign(config, shrink_max_tests=24, batch=2)
    assert report.findings, (
        f"campaign missed the reintroduced bug in {report.seeds_run} seeds"
    )
    finding = report.findings[0]
    assert "stalled" in finding.artifact["expected"]["violation_kinds"]
    # Shrinking happened and stayed within budget.
    assert finding.shrink_result is not None
    assert finding.shrink_result.tests <= 24
    nonzero = finding.shrink_result.nonzero_decisions
    assert 0 < nonzero <= 20, f"shrunk repro still carries {nonzero} decisions"
    # The serialized artifact replays bit-exactly and still violates.
    replay = replay_artifact(finding.artifact)
    assert replay.ok, replay.summary()
    assert is_violation(replay.outcome)
    # It is the checked-in planted artifact, found again.
    planted = read_artifact(WEDGED_VIEW_CURSOR_ARTIFACT)
    assert finding.seed_index == 0
    assert artifact_cell(finding.artifact) == artifact_cell(planted)
    assert finding.artifact["expected"] == planted["expected"]


def test_campaign_on_the_faithful_protocol_stays_clean():
    """Negative control on the identical schedule distribution: the only
    delta to the finding campaign is the planted bug, so a violation here
    would implicate the fuzzer (or the protocol), not the planted bug."""
    config = FuzzConfig(seeds=4)
    report = run_campaign(config, do_shrink=False, batch=2)
    assert report.ok, [f.row for f in report.findings]
    assert report.seeds_run == 4


def test_should_stop_bounds_the_campaign(monkeypatch):
    plant_wedged_view_cursor(monkeypatch)
    calls = []

    def stop_after_first_batch():
        calls.append(1)
        return len(calls) > 1

    config = FuzzConfig(seeds=8)
    report = run_campaign(
        config,
        should_stop=stop_after_first_batch,
        stop_on_violation=False,
        do_shrink=False,
        batch=2,
    )
    assert report.stopped_early
    assert report.seeds_run < 8


@pytest.mark.parametrize("protocol", ["ladon-hotstuff", "iss-hotstuff"])
def test_hotstuff_campaign_stays_clean(protocol):
    """HotStuff stacks have no view change, so the campaign leaves the
    propose timer unarmed for them; armed, it wedged every seed here."""
    config = FuzzConfig(protocol=protocol, seeds=2, max_delay=3.0, probability=0.2)
    assert config.base_cell().propose_timeout is None
    report = run_campaign(config, do_shrink=False, batch=2)
    assert report.ok, [f.row for f in report.findings]
    assert report.seeds_run == 2
