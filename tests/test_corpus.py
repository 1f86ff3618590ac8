"""The fuzzer's regression corpus: every artifact must replay bit-exactly.

``tests/corpus/*.json`` are minimized schedule-space violations found by
``python -m repro.bench fuzz run`` and pinned forever: each artifact names
an experiment cell, the decision vector that perturbs its schedule, and the
expected outcome (audit verdict + canonical trace digest).  A replay that
diverges means protocol or simulator behaviour changed on exactly the
interleaving that once exposed a bug — the one interleaving we know is
load-bearing.

Bugs planted on purpose live apart: ``tests/planted/`` holds the artifact of
the wedged view cursor (:mod:`planted_bugs`).  It replays bit-exactly only
with the planted instance class installed, and the faithful protocol must
NOT violate on its schedule, which pins both directions: the bug stays
reproducible, the fix stays fixed.
"""

import glob
import os

import pytest

from repro.fuzz.artifact import artifact_cell, is_violation, outcome_of, read_artifact
from repro.fuzz.replay import replay_artifact, run_cell_traced

from planted_bugs import WEDGED_VIEW_CURSOR_ARTIFACT, plant_wedged_view_cursor

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
ARTIFACTS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def _name(path):
    return os.path.basename(path)


def test_corpus_is_not_empty():
    assert ARTIFACTS, f"no artifacts in {CORPUS_DIR}"


@pytest.mark.parametrize("path", ARTIFACTS, ids=_name)
def test_artifact_replays_bit_exact(path):
    artifact = read_artifact(path)
    report = replay_artifact(artifact)
    assert report.ok, f"{_name(path)}: {report.summary()}"
    # A corpus artifact that stopped violating is stale, not just diverged.
    assert is_violation(report.outcome), (
        f"{_name(path)} replayed bit-exact but no longer violates; "
        "regenerate or retire it"
    )


def test_planted_wedged_view_cursor_replays_bit_exact(monkeypatch):
    plant_wedged_view_cursor(monkeypatch)
    artifact = read_artifact(WEDGED_VIEW_CURSOR_ARTIFACT)
    report = replay_artifact(artifact)
    assert report.ok, report.summary()
    assert report.outcome == artifact["expected"]
    assert report.outcome["violation_kinds"] == ["stalled"]


def test_faithful_protocol_does_not_reproduce_the_wedged_view_cursor():
    """Negative control: same cell and schedule, no planted bug, no violation.

    Only the verdict is checked: the faithful protocol sends different
    messages, so the digest legitimately differs.
    """
    system, result = run_cell_traced(artifact_cell(read_artifact(WEDGED_VIEW_CURSOR_ARTIFACT)))
    outcome = outcome_of(result, system.trace.events)
    assert not is_violation(outcome), outcome["violation_kinds"]
