"""Micro-benchmark: heap-based DynamicOrderer drain vs the reference O(k²) scan.

The hot path of the global ordering layer is the drain that runs when a
straggler's fresh block lifts the confirmation bar over a large backlog.  The
seed implementation re-ran ``min()`` over every unconfirmed block per
confirmation (O(k²) for a k-block drain); the orderer now keeps a min-heap
keyed by ``ordering_key`` (O(k log k)).  This benchmark builds a k-block
backlog behind a silent instance, then times the single release drain.

The 10k-block comparison (paper-scale backlog, ≥10x requirement) is marked
``slow``; a 2k-block version guards the speedup in the tier-1 run.
"""

import pytest

from repro.core.block import Block
from repro.core.ordering import DynamicOrderer

from reference_orderer import ScanDrainDynamicOrderer

from conftest import time_once


def build_backlog(orderer_cls, pending):
    """Queue ``pending`` blocks of instance 0 while instance 1 stays silent.

    Intermediate drains are suppressed so both implementations start the
    timed release from an identical k-block backlog.
    """
    orderer = orderer_cls(num_instances=2)
    real_drain, orderer._drain = orderer._drain, lambda now: []
    orderer.add_partially_committed(Block(instance=1, round=1, rank=0), now=0.0)
    for round_ in range(1, pending + 1):
        orderer.add_partially_committed(Block(instance=0, round=round_, rank=round_), now=0.0)
    orderer._drain = real_drain
    return orderer


def timed_release(orderer_cls, pending):
    """Time the single drain triggered by the straggler's release block."""
    orderer = build_backlog(orderer_cls, pending)
    release = Block(instance=1, round=2, rank=pending + 1)
    newly, seconds = time_once(orderer.add_partially_committed, release, now=1.0)
    # Everything up to and including instance 1's round-1 block drains; only
    # the release block itself stays pending (above the new bar).
    assert len(newly) == pending + 1
    assert [c.sn for c in newly] == list(range(pending + 1))
    return seconds


def test_drain_speedup_2k_pending():
    """Tier-1 guard: the heap drain beats the seed scan by >=5x at 2k blocks."""
    scan = timed_release(ScanDrainDynamicOrderer, 2000)
    heap = timed_release(DynamicOrderer, 2000)
    assert heap * 5 <= scan, f"expected >=5x speedup, got {scan / heap:.1f}x"


@pytest.mark.slow
def test_drain_speedup_10k_pending():
    """Acceptance bar: >=10x over the seed O(k²) drain at 10k pending blocks."""
    scan = timed_release(ScanDrainDynamicOrderer, 10_000)
    heap = timed_release(DynamicOrderer, 10_000)
    speedup = scan / heap
    print(f"\n10k-block drain: scan {scan * 1000:.1f} ms, heap {heap * 1000:.1f} ms "
          f"({speedup:.0f}x)")
    assert speedup >= 10.0
