"""Workload substrate: transactions and arrival processes."""

from repro.workload.transactions import Transaction, TransactionFactory, Batch

__all__ = [
    "Transaction",
    "TransactionFactory",
    "Batch",
]
