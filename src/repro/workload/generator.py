"""Workload generation: arrival-rate profiles and the per-run traffic stream.

The paper's evaluation drives the system with a saturated open-loop workload
(peak-throughput measurement).  The scenario engine generalises this to
time-varying **traffic profiles** — uniform, bursty, ramp, diurnal — plus
Zipf-skewed distribution of load across consensus instances.

Profiles are deterministic closed forms: ``cumulative(t)`` returns the
expected number of arrivals in ``[0, t]`` without iterating per transaction,
so the simulation hot path (a leader cutting a batch) costs O(1) per cut
regardless of rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


# -------------------------------------------------------------- profiles
class TrafficProfile:
    """Deterministic arrival-rate profile.

    ``rate_at(t)`` is the instantaneous arrival rate (tx/s); ``cumulative(t)``
    its exact integral over ``[0, t]``.  Subclasses are frozen dataclasses so
    profiles hash/compare/serialise cleanly inside scenario specs and sweep
    cache keys.
    """

    def rate_at(self, t: float) -> float:
        raise NotImplementedError

    def cumulative(self, t: float) -> float:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class SaturatedTraffic(TrafficProfile):
    """The paper's setting: enough load that every batch cut is full."""

    def rate_at(self, t: float) -> float:
        return math.inf

    def cumulative(self, t: float) -> float:
        return math.inf

    def describe(self) -> str:
        return "saturated"


@dataclass(frozen=True)
class UniformTraffic(TrafficProfile):
    """Constant arrival rate."""

    rate_tps: float = 100_000.0

    def __post_init__(self) -> None:
        if self.rate_tps <= 0:
            raise ValueError("arrival rate must be positive")

    def rate_at(self, t: float) -> float:
        return self.rate_tps

    def cumulative(self, t: float) -> float:
        return self.rate_tps * max(0.0, t)

    def describe(self) -> str:
        return f"uniform({self.rate_tps:g} tps)"


@dataclass(frozen=True)
class BurstyTraffic(TrafficProfile):
    """Square-wave bursts: ``burst_tps`` during the first ``burst_fraction``
    of every ``period`` seconds, ``base_tps`` otherwise (flash crowds)."""

    base_tps: float = 10_000.0
    burst_tps: float = 200_000.0
    period: float = 10.0
    burst_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.base_tps < 0 or self.burst_tps <= 0:
            raise ValueError("rates must be positive")
        if self.period <= 0 or not 0.0 < self.burst_fraction < 1.0:
            raise ValueError("need period > 0 and burst_fraction in (0, 1)")

    def rate_at(self, t: float) -> float:
        phase = (t % self.period) / self.period
        return self.burst_tps if phase < self.burst_fraction else self.base_tps

    def cumulative(self, t: float) -> float:
        if t <= 0:
            return 0.0
        burst_len = self.period * self.burst_fraction
        per_period = self.burst_tps * burst_len + self.base_tps * (self.period - burst_len)
        full, rest = divmod(t, self.period)
        partial = self.burst_tps * min(rest, burst_len) + self.base_tps * max(0.0, rest - burst_len)
        return full * per_period + partial

    def describe(self) -> str:
        return f"bursty({self.base_tps:g}->{self.burst_tps:g} tps, period {self.period:g}s)"


@dataclass(frozen=True)
class RampTraffic(TrafficProfile):
    """Linear ramp from ``start_tps`` to ``end_tps`` over ``ramp_duration``
    seconds, holding ``end_tps`` afterwards (load ramps, flash onset)."""

    start_tps: float = 1_000.0
    end_tps: float = 100_000.0
    ramp_duration: float = 20.0

    def __post_init__(self) -> None:
        if self.start_tps < 0 or self.end_tps < 0:
            raise ValueError("rates must be non-negative")
        if self.ramp_duration <= 0:
            raise ValueError("ramp duration must be positive")

    def rate_at(self, t: float) -> float:
        if t >= self.ramp_duration:
            return self.end_tps
        frac = max(0.0, t) / self.ramp_duration
        return self.start_tps + (self.end_tps - self.start_tps) * frac

    def cumulative(self, t: float) -> float:
        if t <= 0:
            return 0.0
        ramp_t = min(t, self.ramp_duration)
        ramp_area = ramp_t * (self.rate_at(0.0) + self.rate_at(ramp_t)) / 2.0
        hold_area = max(0.0, t - self.ramp_duration) * self.end_tps
        return ramp_area + hold_area

    def describe(self) -> str:
        return f"ramp({self.start_tps:g}->{self.end_tps:g} tps over {self.ramp_duration:g}s)"


@dataclass(frozen=True)
class DiurnalTraffic(TrafficProfile):
    """Sinusoidal day/night cycle around ``mean_tps``."""

    mean_tps: float = 50_000.0
    amplitude: float = 0.8  # peak deviation as a fraction of the mean
    period: float = 60.0    # one "day" in virtual seconds

    def __post_init__(self) -> None:
        if self.mean_tps <= 0 or self.period <= 0:
            raise ValueError("mean rate and period must be positive")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1]")

    def rate_at(self, t: float) -> float:
        omega = 2.0 * math.pi / self.period
        return self.mean_tps * (1.0 + self.amplitude * math.sin(omega * t))

    def cumulative(self, t: float) -> float:
        if t <= 0:
            return 0.0
        omega = 2.0 * math.pi / self.period
        return self.mean_tps * (t + self.amplitude / omega * (1.0 - math.cos(omega * t)))

    def describe(self) -> str:
        return f"diurnal({self.mean_tps:g} tps +/-{self.amplitude:.0%}, period {self.period:g}s)"


def zipf_weights(k: int, s: float) -> Tuple[float, ...]:
    """Normalised Zipf weights ``w_i ~ 1/(i+1)^s`` for ``k`` entries.

    ``s = 0`` degenerates to uniform; larger ``s`` skews load towards the
    first entries (hot instances / hot clients).
    """
    if k <= 0:
        raise ValueError("need at least one entry")
    if s < 0:
        raise ValueError("zipf exponent must be non-negative")
    raw = [1.0 / (i + 1) ** s for i in range(k)]
    total = sum(raw)
    return tuple(w / total for w in raw)


# ---------------------------------------------------------------- stream
class TrafficStream:
    """Streams a profile's arrivals to consensus instances without
    materialising transactions.

    The aggregate arrival process is split across ``num_instances`` by
    ``weights`` (e.g. :func:`zipf_weights` for skewed load).  A leader cutting
    a batch calls :meth:`take`, which returns how many transactions arrived
    for that instance since its last cut (capped at the batch size) together
    with their representative submission time.  State is O(instances); cost
    per cut is O(1).

    ``submit_delay`` models per-region client placement: entry ``i`` is the
    mean client-to-leader propagation delay for instance ``i``, shifting the
    effective submission time of its transactions into the past.
    """

    def __init__(
        self,
        profile: TrafficProfile,
        num_instances: int,
        weights: Optional[Sequence[float]] = None,
        submit_delay: Optional[Sequence[float]] = None,
    ) -> None:
        if num_instances <= 0:
            raise ValueError("need at least one instance")
        if weights is not None and len(weights) != num_instances:
            raise ValueError("weights must have one entry per instance")
        if submit_delay is not None and len(submit_delay) != num_instances:
            raise ValueError("submit_delay must have one entry per instance")
        self.profile = profile
        self.num_instances = num_instances
        self.weights: Tuple[float, ...] = (
            tuple(weights) if weights is not None
            else tuple(1.0 / num_instances for _ in range(num_instances))
        )
        self.submit_delay: Tuple[float, ...] = (
            tuple(submit_delay) if submit_delay is not None
            else tuple(0.0 for _ in range(num_instances))
        )
        self._consumed: List[float] = [0.0] * num_instances
        self._last_cut: List[float] = [0.0] * num_instances
        self.total_taken = 0

    @property
    def saturated(self) -> bool:
        return isinstance(self.profile, SaturatedTraffic)

    def take(self, instance_id: int, now: float, cap: int) -> Tuple[int, float]:
        """Draw up to ``cap`` transactions for ``instance_id`` at time ``now``.

        Returns ``(count, submitted_at)``.  ``submitted_at`` is the mean
        submission time: it approximates the batch's arrivals as uniform over
        the interval since the instance's previous cut, minus the
        client-to-leader delay.
        """
        last = self._last_cut[instance_id]
        if self.saturated:
            count = cap
        else:
            available = (
                self.profile.cumulative(now) * self.weights[instance_id]
                - self._consumed[instance_id]
            )
            count = min(cap, int(available))
            if count > 0:
                self._consumed[instance_id] += count
        self._last_cut[instance_id] = now
        if count <= 0:
            return 0, now
        self.total_taken += count
        mean_at = (last + now) / 2.0 - self.submit_delay[instance_id]
        return count, max(0.0, mean_at)
