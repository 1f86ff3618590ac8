"""Measurement: throughput, latency, causal strength, resource accounting,
and the safety/liveness auditor that self-verifies every run."""

from repro.metrics.auditor import AuditViolation, SafetyAuditReport, audit_system
from repro.metrics.collector import RunMetrics, summarise, throughput_series
from repro.metrics.resources import ResourceModel, ResourceUsage, CryptoCostModel

__all__ = [
    "AuditViolation",
    "RunMetrics",
    "SafetyAuditReport",
    "audit_system",
    "summarise",
    "throughput_series",
    "ResourceModel",
    "ResourceUsage",
    "CryptoCostModel",
]
