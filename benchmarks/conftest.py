"""Shared helpers for the benchmark drivers.

Each benchmark regenerates one table or figure of the paper.  The underlying
experiments are full simulation sweeps, so every benchmark is run exactly
once (``rounds=1``) — the interesting output is the regenerated table, not a
timing distribution.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(__file__))
# ``src`` for the package, ``tests`` for test-side helpers shared with the
# benchmarks (e.g. the reference orderer in ``tests/reference_orderer.py``)
for _path in (os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tests")):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)


def time_once(fn, *args, **kwargs):
    """Run ``fn`` once and return ``(result, wall-clock seconds)``.

    Default timing helper for micro-benchmarks that compare two
    implementations directly (e.g. the orderer drain benchmark) instead of
    collecting a pytest-benchmark distribution.
    """
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start
