"""perfbench — the repository's one re-runnable performance benchmark.

Four saturated-traffic workloads run through the public build/run/collect
calls of :mod:`repro`, each repeat in a fresh interpreter.  Two kinds of
number come out and every metric says which it is: **host time** (what the
simulator costs us; noisy) and **simulated statistics** (what the modelled
protocol achieves; exact for a fixed seed).  See ``perfbench/README.md``.
"""
