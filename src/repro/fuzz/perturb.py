"""Bounded, seeded perturbation of the delivery schedule.

A :class:`SchedulePerturbation` wraps the transport's delivery scheduling
(:meth:`repro.sim.network.Network.set_delivery_perturbation`): every
delivery's arrival time may be pushed *later* by a delta in
``[0, max_delay]``.  Delays-only keeps perturbed runs valid executions —
an arrival never moves before its departure, so causality and the
scheduler's no-past invariant hold by construction.

Two modes share one code path:

* **generation** (``decisions is None``) — deltas are drawn from a private
  ``random.Random(seed)``, one gate draw plus one magnitude draw per
  delivery, so identical ``(seed, cell)`` always yields the identical
  perturbation sequence;
* **replay/shrink** (``decisions`` set) — deltas come from the supplied
  vector by delivery index (missing indices mean 0.0), which is how the
  shrinker zeroes individual perturbation decisions while holding the rest
  of the schedule fixed.

With ``preserve_fifo`` (the default), deliveries of one ``(sender,
receiver)`` pair that the base schedule kept in FIFO order stay in FIFO
order after perturbation: a delivery's perturbed time is clamped up to the
pair's previous perturbed time.  The clamp never leaves the envelope —
inductively ``perturbed <= base + max_delay`` for the predecessor, and a
successor with ``base' >= base`` therefore has ``base' + max_delay >=
perturbed`` — so every perturbed arrival ``a`` satisfies
``base <= a <= base + max_delay``.  Pairs the *base* schedule already
reordered (jittered latency models do) are left unclamped: the transport
never guaranteed their order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class PerturbationSpec:
    """Declarative description of one perturbation stream (cache/artifact key).

    ``decisions`` switches replay mode on: entry ``i`` is the delay applied
    to the ``i``-th scheduled delivery (missing entries are 0.0) and the RNG
    is never consumed.
    """

    max_delay: float = 0.1
    probability: float = 1.0
    preserve_fifo: bool = True
    seed: int = 0
    #: perturb only deliveries whose *base* arrival is before this virtual
    #: time (None = the whole run).  A bounded burst lets honest executions
    #: recover before the auditor's end-of-run stall window, so liveness
    #: findings implicate the protocol, not the fuzzer's own load.
    until: Optional[float] = None
    decisions: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.decisions is not None:
            for index, delta in enumerate(self.decisions):
                if delta < 0 or delta > self.max_delay:
                    raise ValueError(
                        f"decision {index} ({delta}) outside [0, {self.max_delay}]"
                    )

    # ------------------------------------------------------- serialization
    def as_dict(self) -> dict:
        """JSON-ready form; ``decisions`` is stored sparse (mostly zeros)."""
        out = {
            "max_delay": self.max_delay,
            "probability": self.probability,
            "preserve_fifo": self.preserve_fifo,
            "seed": self.seed,
            "until": self.until,
            "decisions": None,
        }
        if self.decisions is not None:
            out["decisions"] = {
                "len": len(self.decisions),
                "nonzero": [
                    [index, delta]
                    for index, delta in enumerate(self.decisions)
                    if delta
                ],
            }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PerturbationSpec":
        decisions = data.get("decisions")
        dense: Optional[Tuple[float, ...]] = None
        if decisions is not None:
            values = [0.0] * decisions["len"]
            for index, delta in decisions["nonzero"]:
                values[index] = delta
            dense = tuple(values)
        return cls(
            max_delay=data["max_delay"],
            probability=data["probability"],
            preserve_fifo=data["preserve_fifo"],
            seed=data["seed"],
            until=data.get("until"),
            decisions=dense,
        )


class SchedulePerturbation:
    """Stateful applicator of a :class:`PerturbationSpec` to one run.

    The transport calls :meth:`perturb` once per scheduled delivery, in
    scheduling order; ``applied`` accumulates the *effective* delta of each
    delivery (post-FIFO-clamp), which is exactly the decision vector that
    replays this run when fed back as ``spec.decisions``.
    """

    def __init__(self, spec: PerturbationSpec) -> None:
        self.spec = spec
        self._rng = random.Random(spec.seed)
        self._index = 0
        #: effective delta per delivery, in scheduling order
        self.applied: List[float] = []
        #: per-(sender, receiver) FIFO frontier: (highest base, its perturbed time)
        self._fifo_high: Dict[Tuple[int, int], Tuple[float, float]] = {}

    def perturb(self, arrival: float, sender: int, receiver: int) -> float:
        """The perturbed arrival time for the next delivery in schedule order."""
        spec = self.spec
        decisions = spec.decisions
        index = self._index
        self._index = index + 1
        if decisions is not None:
            delta = decisions[index] if index < len(decisions) else 0.0
        elif spec.until is not None and arrival >= spec.until:
            delta = 0.0  # outside the burst window: no draw, no delay
        elif spec.probability >= 1.0 or self._rng.random() < spec.probability:
            delta = self._rng.random() * spec.max_delay
        else:
            delta = 0.0
        time = arrival + delta
        if spec.preserve_fifo:
            key = (sender, receiver)
            high = self._fifo_high.get(key)
            if high is None or arrival >= high[0]:
                # In-order in the base schedule: stay in order (clamp up to
                # the predecessor's perturbed time; see module docstring for
                # why this cannot exceed arrival + max_delay).
                if high is not None and time < high[1]:
                    time = high[1]
                self._fifo_high[key] = (arrival, time)
            # else: the base schedule itself reordered this pair — no FIFO
            # guarantee existed, so no clamp (and the frontier stays put).
        self.applied.append(time - arrival)
        return time
