"""Experiment cell configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.fuzz.perturb import PerturbationSpec
from repro.protocols.base import SystemConfig
from repro.scenario import ScenarioSpec, get_scenario
from repro.sim.faults import FaultConfig


#: engine selector: "des" (message-level) or "analytical" (block-level)
EngineKind = str


@dataclass(frozen=True)
class ExperimentCell:
    """One (protocol, n, straggler, environment) measurement cell."""

    protocol: str
    n: int
    stragglers: int = 0
    byzantine: bool = False
    environment: str = "wan"
    duration: float = 40.0
    straggler_slowdown: float = 10.0
    batch_size: int = 4096
    total_block_rate: Optional[float] = None  # default: 16 (WAN) / 32 (LAN)
    engine: EngineKind = "des"
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
    #: realtime backend only: wall seconds per simulated second
    realtime_timescale: float = 1.0
    #: sharded backend only: number of DES worker processes; cache-keyed
    shards: int = 1
    #: sharded backend only: replica placement ("affine" or "hash")
    shard_strategy: str = "affine"
    #: schedule-space fuzzing: bounded delivery-order perturbation applied to
    #: the run (DES engine only); cache-keyed like every other field
    perturbation: Optional[PerturbationSpec] = None
    #: opt-in historical-bug reproductions (regression corpus); cache-keyed
    compat_flags: Tuple[str, ...] = ()
    #: per-instance view-change timeout override; None = SystemConfig default
    view_change_timeout: Optional[float] = None

    def scenario_spec(self) -> ScenarioSpec:
        """The scenario this cell runs: the named one, else the ``environment`` preset."""
        if self.scenario is None:
            return ScenarioSpec.preset(self.environment)
        return get_scenario(self.scenario)

    def adversary_spec(self):
        """Resolve the named adversary, or None for an all-honest run."""
        if self.adversary is None:
            return None
        from repro.adversary.registry import get_adversary

        return get_adversary(self.adversary)

    def effective_environment(self) -> str:
        return self.scenario_spec().environment

    def block_rate(self) -> float:
        """Total blocks/s: 16 in the WAN, 32 in the LAN (Sec. 6.1) unless set."""
        if self.total_block_rate is not None:
            return self.total_block_rate
        return 32.0 if self.effective_environment() == "lan" else 16.0

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

    def to_system_config(self) -> SystemConfig:
        """Build the simulator configuration for the DES engine."""
        scenario = self.scenario_spec()
        extra = {}
        if self.view_change_timeout is not None:
            extra["view_change_timeout"] = self.view_change_timeout
        return SystemConfig(
            protocol=self.protocol,
            n=self.n,
            batch_size=self.batch_size,
            total_block_rate=self.block_rate(),
            epoch_length=self.epoch_length,
            environment=scenario.environment,
            duration=self.duration,
            seed=self.seed,
            faults=self.fault_config(),
            propose_timeout=self.propose_timeout,
            scenario=scenario,
            runtime=self.runtime,
            realtime_timescale=self.realtime_timescale,
            shards=self.shards,
            shard_strategy=self.shard_strategy,
            perturbation=self.perturbation,
            compat_flags=self.compat_flags,
            **extra,
        )

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
        if self.compat_flags:
            tag += "-compat:" + ",".join(self.compat_flags)
        if self.scenario is not None:
            return f"{tag}-{self.scenario}"
        return f"{tag}-{self.environment}"
