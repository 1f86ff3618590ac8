"""Workload substrate: transaction batches and arrival processes."""

from repro.workload.transactions import Batch

__all__ = [
    "Batch",
]
