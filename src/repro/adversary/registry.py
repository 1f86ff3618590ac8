"""Named adversary registry.

Built-in adversaries cover one attack each so sweeps can attribute metric
shifts to a single behaviour; compose richer conspiracies with
:class:`~repro.adversary.spec.AdversarySpec` directly and register them
with :func:`register_adversary`.

Replica ids are chosen low (replica 3, which leads instance 3 under the
one-instance-per-replica deployment) so every built-in works from ``n=4``
up.  ``equivocation-colluding`` corrupts two replicas — at ``n=4`` that is
``f >= n/3``, past the protocol's fault budget, and is exactly the
negative control the safety auditor is expected to flag.
"""

from __future__ import annotations

from typing import Dict, List

from repro.adversary.attacks import (
    DelayedVotes,
    Equivocation,
    RankManipulation,
    Silence,
)
from repro.adversary.spec import AdversarySpec

_REGISTRY: Dict[str, AdversarySpec] = {}


def register_adversary(spec: AdversarySpec, overwrite: bool = False) -> AdversarySpec:
    """Add ``spec`` to the registry under ``spec.name``."""
    if not spec.name:
        raise ValueError("registered adversaries must be named")
    if spec.name in _REGISTRY and not overwrite:
        raise ValueError(f"adversary {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_adversary(name: str) -> AdversarySpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown adversary {name!r}; available: {', '.join(available_adversaries())}"
        ) from None


def available_adversaries() -> List[str]:
    return sorted(_REGISTRY)


# ------------------------------------------------------------------ built-ins
register_adversary(
    AdversarySpec(
        name="equivocation",
        description=(
            "replica 3 forks its instance's proposals and votes into two "
            "conflicting worlds; safe only at n = 3f+1 today, where one fork "
            "can never reach quorum and honest odd replicas stall on "
            "instance 3 (at n=5 both forks commit: see ROADMAP, 'Quorums "
            "that share an honest replica at every n')"
        ),
        attacks=(Equivocation(replicas=(3,)),),
    )
)

register_adversary(
    AdversarySpec(
        name="equivocation-colluding",
        description=(
            "replicas 2 and 3 equivocate and cross-vote for each other's "
            "forks; at n=4 that is f >= n/3 and both forks commit — the "
            "safety auditor must report the violation (negative control)"
        ),
        attacks=(Equivocation(replicas=(2, 3)),),
    )
)

register_adversary(
    AdversarySpec(
        name="silence-observer",
        description=(
            "from t=4s replica 3 suppresses its proposals towards replica 0 "
            "only: the censored replica stops partially committing instance "
            "3 and its globally confirmed log stalls at the confirmation bar"
        ),
        attacks=(Silence(replicas=(3,), targets=(0,), kinds=("proposal",), start=4.0),),
    )
)

register_adversary(
    AdversarySpec(
        name="delayed-votes",
        description=(
            "replica 3 withholds every proposal and vote for 3s — well "
            "under the 10s view-change timeout, so rounds it leads or "
            "gates crawl without a single view change firing"
        ),
        attacks=(DelayedVotes(replicas=(3,), delay=3.0),),
    )
)

register_adversary(
    AdversarySpec(
        name="rank-manipulation",
        description=(
            "replica 3 is the paper's Byzantine straggler (Sec. 4.4): 1/10 "
            "proposal rate, empty blocks, and only the lowest 2f+1 rank "
            "reports when choosing its rank"
        ),
        attacks=(RankManipulation(replicas=(3,), slowdown=10.0),),
    )
)
