"""Tracing from the benchmark's side: phase spans and per-layer attribution.

Nothing here edits or wraps the program: spans are recorded around the
public calls into each layer, and the ``runtime.run`` phase of the traced
pass runs under a ``cProfile`` hook whose per-function times are rolled up
by the package (``src/repro/<layer>/``) that defines each function.

Roll-up by package rather than a table of wrapped method names is
deliberate: the hot path bypasses public methods (route table -> private
``_on_*`` handlers; ``Simulator.run`` reads the heap directly), and a name
table would break under refactors that a gain-claiming PR is allowed to
make while it may not edit the benchmark.
"""

from __future__ import annotations

import json
import re
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from perfbench.metrics import LAYERS

_LAYER_OF_PATH = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")
_HEAP = re.compile(r"_heapq\.")
#: the hub blocks here while workers compute
_HUB_WAIT = re.compile(r"'poll' of 'select\.poll'|select\.select")
#: moving bytes between hub and workers: pipe I/O and (un)pickling
_HUB_IPC_BUILTIN = re.compile(r"posix\.(read|write)|_pickle\.(dumps|loads)")
_HUB_IPC_FILE = re.compile(r"multiprocessing[/\\]connection\.py$|repro[/\\]shard[/\\]ipc\.py$")


class SpanRecorder:
    """In-memory spans: name, start, end, parent, run id.

    Kept in a list while the run lasts and written out (JSONL) only when the
    benchmark ends, so recording costs two clock reads per phase.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, start: Optional[float] = None) -> Iterator[None]:
        """Record a span around the block; ``start`` backdates it (process start)."""
        index = len(self.spans)
        self.spans.append({
            "run": self.run_id, "id": index, "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter() if start is None else start, "end": None,
        })
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end"] = time.perf_counter()

    def duration(self, name: str) -> Optional[float]:
        for span in self.spans:
            if span["name"] == name:
                return span["end"] - span["start"]
        return None


def write_spans(path: str, spans: List[Dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def _layer_of(code: Any) -> Optional[str]:
    """The ``repro`` package defining ``code``; None for builtins and foreign code."""
    if isinstance(code, str):
        return None
    match = _LAYER_OF_PATH.search(code.co_filename)
    if match and match.group(1) in LAYERS:
        return match.group(1)
    return None


def attribute(profile_stats: List[Any]) -> Dict[str, float]:
    """Roll a ``cProfile.Profile.getstats()`` list up into per-layer metrics.

    A function defined under ``src/repro/<layer>/`` charges its self time
    and call count to ``<layer>``.  Everything else — C builtins, the
    standard library, dataclass-generated methods — charges its self time
    to the layer of its *caller*, per call edge; where the caller is itself
    foreign (``Connection.poll`` -> ``select.poll``), the edge is passed up
    the caller chain in proportion to the time each caller edge carried.
    ``trace.coverage`` is the share of profiled time that found a layer.
    """
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.builtin_s"] = 0.0
        out[f"{layer}.calls"] = 0
    out["sim.heap_s"] = out["shard.hub_wait_s"] = out["shard.hub_ipc_s"] = 0.0

    # callee code -> [(caller code, total time carried by that edge)]
    callers: Dict[Any, List[Any]] = {}
    for entry in profile_stats:
        for sub in entry.calls or ():
            callers.setdefault(sub.code, []).append((entry.code, sub.totaltime))

    shares: Dict[Any, Dict[str, float]] = {}

    def layer_shares(code: Any, seen: frozenset) -> Dict[str, float]:
        """Which layers a foreign function's time belongs to, as fractions."""
        own = _layer_of(code)
        if own is not None:
            return {own: 1.0}
        if code in shares:
            return shares[code]
        edges = [(c, t) for c, t in callers.get(code, ()) if c not in seen]
        total = sum(t for _c, t in edges)
        mix: Dict[str, float] = {}
        for caller, carried in edges:
            weight = carried / total if total > 0 else 1.0 / len(edges)
            for layer, share in layer_shares(caller, seen | {code}).items():
                mix[layer] = mix.get(layer, 0.0) + weight * share
        if not seen:  # memoise only full (uncut) resolutions
            shares[code] = mix
        return mix

    profiled = 0.0
    for entry in profile_stats:
        profiled += entry.inlinetime
        code = entry.code
        if isinstance(code, str):
            if _HEAP.search(code):
                out["sim.heap_s"] += entry.inlinetime
            if _HUB_WAIT.search(code):
                out["shard.hub_wait_s"] += entry.inlinetime
            elif _HUB_IPC_BUILTIN.search(code):
                out["shard.hub_ipc_s"] += entry.inlinetime
        elif _HUB_IPC_FILE.search(code.co_filename):
            out["shard.hub_ipc_s"] += entry.inlinetime
        layer = _layer_of(code)
        if layer is not None:
            out[f"{layer}.self_s"] += entry.inlinetime
            out[f"{layer}.calls"] += entry.callcount
        foreign = sum(s.inlinetime for s in entry.calls or () if _layer_of(s.code) is None)
        if foreign:
            for target, share in layer_shares(code, frozenset()).items():
                out[f"{target}.builtin_s"] += foreign * share
    attributed = sum(out[f"{l}.self_s"] + out[f"{l}.builtin_s"] for l in LAYERS)
    out["trace.coverage"] = attributed / profiled if profiled > 0 else 0.0
    return out
