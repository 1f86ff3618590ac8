"""Protocol registry: one row per stack, name -> replica class over instance class.

``rcc`` is ISS's replica over PBFT: RCC's wait-free leader replacement is not
modelled, because the paper's honest stragglers never trigger it.
"""

from __future__ import annotations

from functools import partial
from types import MappingProxyType
from typing import Callable, List, Mapping, Optional, TYPE_CHECKING

from repro.consensus.hotstuff import HotStuffInstance
from repro.consensus.ladon_hotstuff import LadonHotStuffInstance
from repro.consensus.ladon_opt import LadonOptInstance
from repro.consensus.ladon_pbft import LadonPBFTInstance
from repro.consensus.pbft import PBFTInstance
from repro.protocols.base import MultiBFTReplica, MultiBFTSystem
from repro.protocols.dqbft import DQBFTReplica
from repro.protocols.iss import ISSReplica
from repro.protocols.ladon import LadonReplica
from repro.protocols.mir import MirPBFTInstance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.config import ExperimentCell
    from repro.scenario.spec import ScenarioSpec
    from repro.sim.faults import FaultConfig

# A stack is a replica class (orderer, epochs, protocol extras) over a
# consensus-instance class.
# Read-only mappings (ISO-001): worker processes import this module, so the
# registry must be immutable shared state, not a mutable module global.
_REGISTRY: Mapping[str, Callable[..., MultiBFTReplica]] = MappingProxyType({
    "ladon-pbft": partial(LadonReplica, instance_cls=LadonPBFTInstance),
    "ladon-opt": partial(LadonReplica, instance_cls=LadonOptInstance),
    "ladon-hotstuff": partial(LadonReplica, instance_cls=LadonHotStuffInstance),
    "iss-pbft": partial(ISSReplica, instance_cls=PBFTInstance),
    "iss-hotstuff": partial(ISSReplica, instance_cls=HotStuffInstance),
    "mir": partial(ISSReplica, instance_cls=MirPBFTInstance),
    "rcc": partial(ISSReplica, instance_cls=PBFTInstance),
    "dqbft": partial(DQBFTReplica, instance_cls=PBFTInstance),
})

_ALIASES: Mapping[str, str] = MappingProxyType({
    "ladon": "ladon-pbft",
    "iss": "iss-pbft",
    "mir-pbft": "mir",
    "rcc-pbft": "rcc",
    "dqbft-pbft": "dqbft",
})


def available_protocols() -> List[str]:
    """The canonical protocol names accepted by :func:`build_system`."""
    return sorted(_REGISTRY.keys())


def resolve_protocol(name: str) -> str:
    """Resolve an alias to its canonical protocol name."""
    canonical = _ALIASES.get(name, name)
    if canonical not in _REGISTRY:
        raise KeyError(
            f"unknown protocol {name!r}; available: {', '.join(available_protocols())}"
        )
    return canonical


def replica_class(name: str) -> Callable[..., MultiBFTReplica]:
    """The registry row of protocol ``name`` (aliases resolved).

    Shard workers build their partial :class:`MultiBFTSystem` from it
    directly — :func:`build_system` would recurse into the sharded dispatch.
    """
    return _REGISTRY[resolve_protocol(name)]


def build_system(
    cell: "ExperimentCell",
    *,
    faults: Optional["FaultConfig"] = None,
    scenario: Optional["ScenarioSpec"] = None,
):
    """Build the Multi-BFT system named by ``cell.protocol``.

    ``faults`` and ``scenario`` replace what the cell names, for callers
    that need a custom one (see :meth:`~repro.bench.config.ExperimentCell.
    resolve`, the one resolution step of a build).  ``runtime='sharded'``
    returns a :class:`~repro.runtime.sharded.ShardedSystem` — the hub-side
    facade with the same ``run() -> SystemResult`` surface — instead of a
    single-process :class:`MultiBFTSystem`.
    """
    resolved = cell.resolve(faults=faults, scenario=scenario)
    if cell.runtime == "sharded":
        # Lazy import: single-process runs never touch multiprocessing.
        from repro.runtime.sharded import ShardedSystem

        return ShardedSystem(cell, resolved)
    return MultiBFTSystem(cell, replica_class(cell.protocol), resolved)
