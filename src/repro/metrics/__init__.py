"""Measurement: throughput, latency, causal strength, resource accounting,
and the safety/liveness auditor that self-verifies every run."""

from repro.metrics.auditor import AuditViolation, SafetyAuditReport, audit_system
from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.metrics.throughput import ThroughputSeries
from repro.metrics.latency import LatencyAccumulator
from repro.metrics.resources import ResourceModel, ResourceUsage, CryptoCostModel

__all__ = [
    "AuditViolation",
    "MetricsCollector",
    "RunMetrics",
    "SafetyAuditReport",
    "audit_system",
    "ThroughputSeries",
    "LatencyAccumulator",
    "ResourceModel",
    "ResourceUsage",
    "CryptoCostModel",
]
