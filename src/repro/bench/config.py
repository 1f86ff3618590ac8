"""The one run configuration: an experiment cell, validated at construction.

An :class:`ExperimentCell` names everything a run is: protocol, size,
stragglers by count, environment or scenario and adversary by name, engine
and runtime backend.  It refuses a bad value in ``__post_init__``, naming the
field, so no invalid cell reaches a sweep cache key or a corpus artifact.
:meth:`ExperimentCell.resolve` turns a cell into the runtime pieces one build
runs on (:class:`ResolvedCell`); callers never set those themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.adversary.registry import get_adversary
from repro.fuzz.perturb import PerturbationSpec
from repro.protocols.base import HOTSTUFF_STACKS
from repro.protocols.registry import resolve_protocol
from repro.runtime.base import RUNTIME_KINDS
from repro.scenario import ScenarioSpec, get_scenario
from repro.sim.faults import FaultConfig


#: engine selectors: "des" (message-level) or "analytical" (block-level)
ENGINES = ("des", "analytical")


@dataclass(frozen=True)
class ResolvedCell:
    """The runtime pieces one build of a cell runs on (see :meth:`ExperimentCell.resolve`)."""

    scenario: ScenarioSpec
    #: the effective fault view: stragglers, crashes and adversaries, with
    #: the scenario's dynamics timeline and adversary merged in
    faults: FaultConfig
    #: blocks per second across all instances
    block_rate: float
    #: seconds between two proposals of one non-straggling leader
    proposal_interval: float


@dataclass(frozen=True)
class ExperimentCell:
    """One (protocol, n, straggler, environment) measurement cell."""

    protocol: str
    n: int
    stragglers: int = 0
    byzantine: bool = False
    #: "wan" or "lan": the paper environment a cell without ``scenario`` runs
    environment: str = "wan"
    duration: float = 40.0
    straggler_slowdown: float = 10.0
    batch_size: int = 4096
    total_block_rate: Optional[float] = None  # default: 16 (WAN) / 32 (LAN)
    #: one of :data:`ENGINES`
    engine: str = "des"
    seed: int = 0
    epoch_length: int = 64
    propose_timeout: Optional[float] = None
    #: named scenario (see :mod:`repro.scenario.registry`); when set it
    #: replaces the ``environment`` preset
    scenario: Optional[str] = None
    #: named adversary (see :mod:`repro.adversary.registry`), applied on top
    #: of whatever the scenario configures; cache-keyed like ``scenario``
    adversary: Optional[str] = None
    #: execution backend for the DES engine's system: "des" (virtual time,
    #: the default), "realtime" (asyncio wall clock), or "sharded"
    #: (conservative-parallel DES across worker processes); cache-keyed
    runtime: str = "des"
    #: realtime backend only: wall seconds per simulated second (0.1 runs a
    #: 10 s scenario in about 1 s of wall time)
    realtime_timescale: float = 1.0
    #: sharded backend only: number of DES worker processes; cache-keyed
    shards: int = 1
    #: sharded backend only: replica placement ("affine" keeps regions whole
    #: so the lookahead is the WAN floor; "hash" ignores topology; see
    #: :mod:`repro.shard.partition`)
    shard_strategy: str = "affine"
    #: schedule-space fuzzing: bounded delivery-order perturbation applied to
    #: the run (DES engine only); cache-keyed like every other field
    perturbation: Optional[PerturbationSpec] = None
    #: per-instance view-change timeout
    view_change_timeout: float = 10.0
    #: record the run's schedule trace (single-process DES runtimes only)
    trace: bool = False

    def __post_init__(self) -> None:
        for name, lookup in (
            ("protocol", resolve_protocol),
            ("scenario", get_scenario),
            ("adversary", get_adversary),
        ):
            value = getattr(self, name)
            if value is not None:
                try:
                    lookup(value)
                except KeyError as error:
                    raise ValueError(f"{name}: {error.args[0]}") from None
        if self.n < 4:
            raise ValueError(f"n must be at least 4, got {self.n!r}")
        if self.environment not in ("wan", "lan"):
            raise ValueError("environment must be 'wan' or 'lan'")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.runtime not in RUNTIME_KINDS:
            raise ValueError(f"runtime must be one of {RUNTIME_KINDS}")
        for name in (
            "duration", "view_change_timeout", "realtime_timescale",
            "total_block_rate", "propose_timeout",
        ):
            value = getattr(self, name)
            if value is None and name in ("total_block_rate", "propose_timeout"):
                continue
            if not (isinstance(value, (int, float)) and 0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("batch_size", "epoch_length"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value!r}")
        if not 0 <= self.stragglers <= self.n:
            raise ValueError(f"stragglers must be within [0, n], got {self.stragglers!r}")
        if not 1.0 <= self.straggler_slowdown < math.inf:
            raise ValueError(
                f"straggler_slowdown must be a finite k >= 1, got {self.straggler_slowdown!r}"
            )
        if self.propose_timeout is not None and self.protocol in HOTSTUFF_STACKS:
            raise ValueError(
                f"propose_timeout must be None for {self.protocol}: HotStuff "
                "stacks run a stable leader with no view change"
            )
        if self.shard_strategy not in ("affine", "hash"):
            raise ValueError("shard_strategy must be 'affine' or 'hash'")
        if self.runtime == "sharded":
            if self.shards < 2:
                raise ValueError("the sharded runtime needs shards >= 2")
            if self.shards > self.n:
                raise ValueError(
                    f"cannot spread n={self.n} replicas across {self.shards} shards"
                )
            if self.trace:
                raise ValueError(
                    "trace capture is single-process only; the sharded runtime "
                    "has no global event order to record"
                )
            if self.perturbation is not None:
                raise ValueError(
                    "schedule perturbation is single-process only; run perturbed "
                    "schedules on runtime='des'"
                )
        elif self.shards != 1:
            raise ValueError("shards > 1 requires runtime='sharded'")
        if self.engine == "analytical":
            for name, des_only in (
                ("scenario", self.scenario is not None),
                ("adversary", self.adversary is not None),
                ("runtime", self.runtime != "des"),
                ("perturbation", self.perturbation is not None),
                ("trace", self.trace),
            ):
                if des_only:
                    raise ValueError(
                        f"{name} runs only on the DES engine; "
                        f"cell {self.label()!r} sets engine='analytical'"
                    )

    def scenario_spec(self) -> ScenarioSpec:
        """The scenario this cell runs: the named one, else the ``environment`` preset."""
        if self.scenario is None:
            return ScenarioSpec.preset(self.environment)
        return get_scenario(self.scenario)

    def adversary_spec(self):
        """Resolve the named adversary, or None for an all-honest run."""
        if self.adversary is None:
            return None
        return get_adversary(self.adversary)

    def effective_environment(self) -> str:
        return self.scenario_spec().environment

    def block_rate(self, scenario: Optional[ScenarioSpec] = None) -> float:
        """Total blocks/s: 16 in the WAN, 32 in the LAN (Sec. 6.1) unless set.

        The environment is ``scenario``'s, by default the cell's own.
        """
        if self.total_block_rate is not None:
            return self.total_block_rate
        environment = (scenario or self.scenario_spec()).environment
        return 32.0 if environment == "lan" else 16.0

    def fault_config(self) -> FaultConfig:
        """The cell's stragglers and named adversary — one rule for both engines."""
        faults = FaultConfig.with_stragglers(
            self.stragglers,
            self.n,
            slowdown=self.straggler_slowdown,
            byzantine=self.byzantine,
            seed=self.seed + 1,
        )
        adversary = self.adversary_spec()
        if adversary is not None:
            faults = faults.with_adversary(adversary)
        return faults

    def resolve(
        self,
        *,
        faults: Optional[FaultConfig] = None,
        scenario: Optional[ScenarioSpec] = None,
    ) -> ResolvedCell:
        """The runtime pieces of one build, computed once.

        ``faults`` replaces the cell's stragglers and adversary, and
        ``scenario`` its named scenario or environment preset, for callers
        that need a custom one; neither may contradict what the cell names.
        """
        if faults is not None and (self.stragglers or self.adversary is not None):
            raise ValueError(
                "pass faults= or set stragglers/adversary on the cell, not both"
            )
        if scenario is not None and self.scenario is not None:
            raise ValueError("pass scenario= or name a scenario on the cell, not both")
        if faults is None:
            faults = self.fault_config()
        if scenario is None:
            scenario = self.scenario_spec()
        rate = self.block_rate(scenario)
        return ResolvedCell(
            scenario=scenario,
            faults=scenario.fault_config(faults, self.n),
            block_rate=rate,
            proposal_interval=self.n / rate,
        )

    def to_system_config(self) -> "ExperimentCell":
        """The cell itself, for ``perfbench/child.py``, this method's only caller.

        A cell is the run configuration; build it with
        :func:`repro.protocols.registry.build_system`.
        """
        return self

    def label(self) -> str:
        tag = f"{self.protocol}-n{self.n}-s{self.stragglers}"
        if self.byzantine:
            tag += "-byz"
        if self.runtime != "des":
            tag += f"-rt:{self.runtime}"
        if self.shards != 1:
            tag += f"x{self.shards}"
        if self.adversary is not None:
            tag += f"-adv:{self.adversary}"
        if self.perturbation is not None:
            tag += f"-perturb:{self.perturbation.seed}"
        if self.scenario is not None:
            return f"{tag}-{self.scenario}"
        return f"{tag}-{self.environment}"

