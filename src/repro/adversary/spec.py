"""The declarative adversary specification.

An :class:`AdversarySpec` bundles a tuple of catalog attacks
(:mod:`repro.adversary.attacks`) into one frozen, hashable value that

* composes into a :class:`~repro.scenario.spec.ScenarioSpec` (the
  ``adversary`` field) and into :class:`~repro.bench.config.ExperimentCell`
  (by registry name), flowing through the sweep cache key like every other
  scenario axis;
* rides the :class:`~repro.sim.faults.FaultConfig` (``adversary`` field),
  where :class:`RankManipulation` attacks lower onto the existing
  straggler machinery; and
* is armed by :meth:`install` onto the runtime timeline from
  :meth:`~repro.sim.faults.FaultInjector.arm`, creating one
  :class:`~repro.adversary.interceptor.AdversaryInterceptor` per
  adversarial replica and logging attack windows into the run's unified
  dynamics log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple, TYPE_CHECKING

from repro.adversary.attacks import Attack, Equivocation, RankManipulation
from repro.adversary.interceptor import AdversaryInterceptor
from repro.sim.faults import StragglerSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.base import Runtime


@dataclass(frozen=True)
class AdversarySpec:
    """A named, composable set of Byzantine attacks."""

    attacks: Tuple[Attack, ...]
    name: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if not self.attacks:
            raise ValueError("an adversary needs at least one attack")

    # ------------------------------------------------------------ inspection
    def replicas(self) -> FrozenSet[int]:
        """Every replica participating in any attack (the conspiracy)."""
        members: set = set()
        for attack in self.attacks:
            members.update(attack.replicas)
        return frozenset(members)

    def rank_manipulators(self) -> FrozenSet[int]:
        members: set = set()
        for attack in self.attacks:
            if isinstance(attack, RankManipulation):
                members.update(attack.replicas)
        return frozenset(members)

    def straggler_specs(self) -> Tuple[StragglerSpec, ...]:
        """Rank manipulation lowered onto the straggler machinery."""
        specs: Dict[int, StragglerSpec] = {}
        for attack in self.attacks:
            if isinstance(attack, RankManipulation):
                for replica in attack.replicas:
                    specs[replica] = StragglerSpec(replica=replica, slowdown=attack.slowdown)
        return tuple(specs[replica] for replica in sorted(specs))

    def describe(self) -> str:
        return "; ".join(attack.describe() for attack in self.attacks)

    # ----------------------------------------------------------- composition
    def merge(self, other: "AdversarySpec") -> "AdversarySpec":
        """Both adversaries' attacks under one spec (``other`` appended)."""
        name = other.name or self.name
        return AdversarySpec(
            attacks=self.attacks + other.attacks,
            name=name,
            description=other.description or self.description,
        )

    def validate_for(self, n: int) -> None:
        out_of_range = sorted(r for r in self.replicas() if r >= n)
        if out_of_range:
            raise ValueError(
                f"adversary {self.name or self.describe()!r} names replicas "
                f"{out_of_range} but the deployment has only n={n}"
            )
        conspirators = self.replicas()
        for attack in self.attacks:
            if isinstance(attack, Equivocation):
                forged_world = [
                    r for r in range(n) if r % 2 == 1 and r not in conspirators
                ]
                if not forged_world:
                    raise ValueError(
                        "equivocation would be inert: the forged world (honest "
                        "odd-id replicas) is empty for this conspiracy at "
                        f"n={n}; pick conspirator ids that leave at least one "
                        "honest odd-id replica"
                    )

    # ---------------------------------------------------------------- arming
    def install(
        self,
        runtime: "Runtime",
        nodes: Dict[int, object],
        event_log: Optional[List[Tuple[float, str, str]]] = None,
        n: Optional[int] = None,
        local_only: bool = False,
    ) -> Dict[int, AdversaryInterceptor]:
        """Install interceptors on the adversarial nodes and arm windows.

        Called by :meth:`~repro.sim.faults.FaultInjector.arm`.  Rank
        manipulation needs no interceptor (it is lowered into the straggler
        configuration); every other attack gets activation/deactivation
        events on the runtime timeline, logged into ``event_log``.

        ``nodes`` may be one shard's slice of the deployment
        (``local_only=True``): conspirators hosted elsewhere are skipped —
        their own shard corrupts them — and ``n`` must then carry the full
        deployment size for the interceptors' quorum math.
        """
        if n is None:
            n = len(nodes)
        self.validate_for(n)
        conspirators = self.replicas()
        interceptors: Dict[int, AdversaryInterceptor] = {}
        for replica in sorted(self.replicas()):
            node = nodes.get(replica)
            if node is None:
                if local_only:
                    continue
                raise KeyError(f"cannot corrupt unknown replica {replica}")
            interceptor = AdversaryInterceptor(
                replica_id=replica, runtime=runtime, n=n, conspirators=conspirators
            )
            node.interceptor = interceptor
            interceptors[replica] = interceptor

        log = event_log if event_log is not None else []
        for attack in self.attacks:
            if isinstance(attack, RankManipulation):
                log.append((0.0, "attack:rank-manipulation", attack.describe()))
                continue
            self._arm_window(runtime, interceptors, attack, log)
        return interceptors

    def _arm_window(
        self,
        runtime: "Runtime",
        interceptors: Dict[int, AdversaryInterceptor],
        attack: Attack,
        log: List[Tuple[float, str, str]],
    ) -> None:
        targets = [
            interceptors[replica]
            for replica in attack.replicas
            if replica in interceptors
        ]
        if not targets:
            return  # no local conspirator on this shard; nothing to arm

        def _on() -> None:
            for interceptor in targets:
                interceptor.activate(attack)
            log.append((runtime.now(), f"attack:{attack.label}", attack.describe()))

        runtime.schedule_at(attack.start, _on, label=f"attack:{attack.label}:on")
        if attack.until is not None:

            def _off() -> None:
                for interceptor in targets:
                    interceptor.deactivate(attack)
                counts = {
                    interceptor.replica_id: interceptor.stats() for interceptor in targets
                }
                log.append(
                    (runtime.now(), f"attack:{attack.label}-end", f"stats={counts}")
                )

            runtime.schedule_at(attack.until, _off, label=f"attack:{attack.label}:off")
