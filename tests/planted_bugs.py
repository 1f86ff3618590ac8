"""Bugs planted on purpose, to show the fuzzer can find a broken protocol.

:class:`WedgedViewCursorInstance` is Ladon-PBFT with the view-change bug
the safety/liveness auditor was first built against: a new leader keeps its
stale proposal cursor instead of resetting it to the resume round, so it
proposes rounds its followers already dropped and the instance stalls.

:func:`plant_wedged_view_cursor` swaps it into the ``ladon-pbft`` registry
row for one test.  Campaigns, shrinks and replays in tests run in-process
(``SweepRunner(workers=0)``, no cache), so the swap reaches all three.
``tests/planted/`` holds the artifacts that replay only with a planted bug
installed; ``tests/corpus/`` holds findings against the faithful protocols.
"""

import os
from functools import partial
from types import MappingProxyType

from repro.consensus.ladon_pbft import LadonPBFTInstance
from repro.protocols import registry
from repro.protocols.ladon import LadonReplica

#: the shrunk campaign finding that replays only under the planted bug
WEDGED_VIEW_CURSOR_ARTIFACT = os.path.join(
    os.path.dirname(__file__), "planted", "fuzz-wedged-view-cursor-seed0.json"
)


class WedgedViewCursorInstance(LadonPBFTInstance):
    """Ladon-PBFT whose new view keeps the stale proposal cursor."""

    def _on_new_view(self, sender, message):
        view, stale_cursor = self.view, self.next_round
        super()._on_new_view(sender, message)
        if self.view != view:
            self.next_round = stale_cursor


def plant_wedged_view_cursor(monkeypatch):
    """Run ``ladon-pbft`` on :class:`WedgedViewCursorInstance` until the test ends."""
    rows = dict(registry._REGISTRY)
    rows["ladon-pbft"] = partial(LadonReplica, instance_cls=WedgedViewCursorInstance)
    monkeypatch.setattr(registry, "_REGISTRY", MappingProxyType(rows))
