"""Parallel experiment sweep runner.

The evaluation harness expands parameter grids into
:class:`~repro.bench.config.ExperimentCell`\\ s and runs them through one
shared machinery instead of ad-hoc nested loops:

* :func:`expand_grid` turns ``{"axis": [values...]}`` into the same
  deterministic nested-loop order the original per-figure loops used;
* :class:`SweepRunner` fans cells out across worker processes
  (``concurrent.futures.ProcessPoolExecutor``), falling back to in-process
  execution when multiprocessing is unavailable or ``workers <= 1``;
* :class:`SweepCache` memoises finished rows on disk, keyed by a stable
  content hash of the cell, so re-running a figure only pays for cells whose
  parameters changed;
* progress is streamed through a callback (the CLI prints it to stderr).

Rows come back as the plain ``RunMetrics.as_dict()`` dictionaries the
benchmark drivers already consume, **in cell order** regardless of which
worker finished first — a parallel sweep is byte-identical to a sequential
one because every cell carries its own seed and the engines are
deterministic.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, fields
from itertools import product
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.bench.config import ExperimentCell
from repro.bench.runner import run_cell

#: bump when the cell semantics or the row layout change incompatibly, so
#: stale cache entries are ignored rather than misread
CACHE_VERSION = 4

Row = Dict[str, object]
ProgressFn = Callable[["SweepProgress"], None]


# ----------------------------------------------------------------- grid
def expand_grid(
    axes: Mapping[str, Sequence[object]],
    defaults: Optional[Mapping[str, object]] = None,
) -> List[ExperimentCell]:
    """Expand ``axes`` into cells in deterministic nested-loop order.

    The first axis is the outermost loop (its values vary slowest), exactly
    like writing the equivalent nested ``for`` loops by hand, so porting a
    figure onto the sweep runner preserves its historical row order.
    """
    names = list(axes)
    cells: List[ExperimentCell] = []
    base = dict(defaults or {})
    for combo in product(*(tuple(axes[name]) for name in names)):
        kwargs = dict(base)
        kwargs.update(zip(names, combo))
        cells.append(ExperimentCell(**kwargs))
    return cells


def cell_key(cell: ExperimentCell) -> str:
    """Stable content hash of a cell (cache key, seed derivation input)."""
    payload = {"cache_version": CACHE_VERSION}
    for f in fields(cell):
        payload[f.name] = getattr(cell, f.name)
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def derive_seed(base_seed: int, *parts: object) -> int:
    """Deterministic per-cell seed from a base seed and identifying parts.

    Use this when a sweep should give every cell an independent random
    stream: the result only depends on the inputs, never on worker or
    completion order.
    """
    blob = json.dumps([base_seed, *parts], sort_keys=True, default=repr).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big")


# ---------------------------------------------------------------- cache
class SweepCache:
    """Disk cache of finished rows, one JSON file per cell hash.

    Layout: ``<directory>/<first two hash chars>/<hash>.json`` holding
    ``{"cell": <label>, "row": {...}}``.  Writes are atomic (tempfile +
    rename) so concurrent sweeps sharing a directory never observe torn
    entries.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], key + ".json")

    def get(self, cell: ExperimentCell) -> Optional[Row]:
        path = self._path(cell_key(cell))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)["row"]
        except (OSError, ValueError, KeyError):
            return None

    def put(self, cell: ExperimentCell, row: Row) -> None:
        path = self._path(cell_key(cell))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump({"cell": cell.label(), "row": row}, fh)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass


# ------------------------------------------------------------- progress
@dataclass(frozen=True)
class SweepProgress:
    """One progress tick: cell ``done`` of ``total`` finished via ``source``."""

    done: int
    total: int
    label: str
    source: str  # "cache" | "run"
    cached: int  # cumulative cache hits


def _run_cell_row(cell: ExperimentCell) -> Row:
    """Worker entry point: run one cell and return its metrics row."""
    return run_cell(cell).as_dict()


# --------------------------------------------------------------- runner
class SweepRunner:
    """Runs batches of cells, optionally in parallel and with a disk cache.

    ``workers`` ``<= 1`` (or ``None``) runs in-process; larger values fan
    out across that many worker processes.  ``cache_dir=None`` disables
    caching.  Identical cells appearing multiple times in one batch are
    executed once.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        self.workers = int(workers) if workers else 0
        self.cache = SweepCache(cache_dir) if cache_dir else None
        self.progress = progress

    # ------------------------------------------------------------- public
    def run(self, cells: Sequence[ExperimentCell]) -> List[Row]:
        """Run ``cells`` and return one row per cell, in cell order."""
        total = len(cells)
        rows: List[Optional[Row]] = [None] * total
        done = 0
        cached = 0

        # Cache hits and duplicate-cell coalescing first.
        pending: Dict[str, List[int]] = {}
        pending_cells: Dict[str, ExperimentCell] = {}
        for index, cell in enumerate(cells):
            key = cell_key(cell)
            if self.cache is not None:
                hit = self.cache.get(cell)
                if hit is not None:
                    rows[index] = hit
                    done += 1
                    cached += 1
                    self._tick(done, total, cell.label(), "cache", cached)
                    continue
            pending.setdefault(key, []).append(index)
            pending_cells[key] = cell

        if pending:
            for key, row in self._execute(pending_cells):
                cell = pending_cells[key]
                if self.cache is not None:
                    self.cache.put(cell, row)
                for index in pending[key]:
                    # Each position gets its own dict: callers stamp
                    # per-position metadata into rows in place, and coalesced
                    # duplicates must not alias one another (cache hits come
                    # back as independent dicts too).
                    rows[index] = dict(row)
                    done += 1
                    self._tick(done, total, cell.label(), "run", cached)
        return [row for row in rows if row is not None]

    # ----------------------------------------------------------- internals
    def _tick(self, done: int, total: int, label: str, source: str, cached: int) -> None:
        if self.progress is not None:
            self.progress(
                SweepProgress(done=done, total=total, label=label, source=source, cached=cached)
            )

    def _execute(self, pending_cells: Mapping[str, ExperimentCell]):
        """Yield ``(key, row)`` for every pending cell, streaming completions."""
        keys = list(pending_cells)
        max_workers = min(self.workers, len(keys))
        finished_keys: set = set()
        if max_workers > 1:
            # Imported here, not at module level: every process that imports
            # ``repro.bench`` only to run one cell (and every shard worker
            # forked from it) would otherwise carry concurrent.futures unused.
            from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait

            try:
                with ProcessPoolExecutor(max_workers=max_workers) as pool:
                    futures = {
                        pool.submit(_run_cell_row, pending_cells[key]): key for key in keys
                    }
                    outstanding = set(futures)
                    while outstanding:
                        ready, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                        for future in ready:
                            key = futures[future]
                            finished_keys.add(key)
                            yield key, future.result()
                return
            except (OSError, PermissionError, ImportError, BrokenExecutor):
                # Environments without working multiprocessing primitives
                # (locked-down sandboxes, missing semaphores): degrade to the
                # sequential path for whatever has not completed yet.
                pass
        for key in keys:
            if key not in finished_keys:
                yield key, _run_cell_row(pending_cells[key])
