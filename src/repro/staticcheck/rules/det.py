"""DET rules: no nondeterminism sources in DES-reachable code.

A DES run must be a pure function of (config, seed): the double-run
determinism test (``tests/test_determinism.py``) witnesses this at runtime,
and these rules keep the classic leak sources out statically — wall clocks,
the process-global RNG, OS entropy, ``id()`` ordering, and iteration over
unordered sets where the order can escape into message traffic.

Scope: every package a DES run can reach (protocols, consensus, core,
adversary, sim, scenario, workload, crypto, metrics, runtime).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.staticcheck.rules.base import (
    DES_REACHABLE_PACKAGES,
    Rule,
    collect_imports,
    is_set_expression,
    resolve_call_target,
)
from repro.staticcheck.violations import Violation


class DetRule(Rule):
    scope = "DES-reachable packages"

    def applies(self, module) -> bool:
        return module.package in DES_REACHABLE_PACKAGES


#: callables that read the wall clock
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: suffixes matched when the datetime class was imported directly
#: (``from datetime import datetime; datetime.now()``)
WALL_CLOCK_SUFFIXES = ("datetime.now", "datetime.utcnow", "datetime.today", "date.today")


class DetWallClockRule(DetRule):
    id = "DET-001"
    name = "no wall-clock reads"

    def check(self, module) -> Iterator[Violation]:
        imports = collect_imports(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node, imports)
            if target is None:
                continue
            if target in WALL_CLOCK_CALLS or target.endswith(WALL_CLOCK_SUFFIXES):
                yield self.violation(
                    module,
                    node,
                    f"wall-clock read {target}(); DES-reachable code gets "
                    "time from runtime.now()",
                )


class DetGlobalRngRule(DetRule):
    id = "DET-002"
    name = "no process-global random.* calls"

    def check(self, module) -> Iterator[Violation]:
        imports = collect_imports(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node, imports)
            if target is None or not target.startswith("random."):
                continue
            attr = target[len("random.") :]
            # instantiating a seeded RNG is the *fix*, not the bug;
            # SystemRandom is OS entropy and belongs to DET-003
            if attr in ("Random", "SystemRandom") or "." in attr:
                continue
            yield self.violation(
                module,
                node,
                f"process-global RNG call {target}(); use a seeded "
                "random.Random instance threaded from the config",
            )


#: OS entropy and identifier sources that differ run-to-run
ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.SystemRandom",
    }
)


class DetEntropyRule(DetRule):
    id = "DET-003"
    name = "no OS entropy (urandom/uuid/secrets)"

    def check(self, module) -> Iterator[Violation]:
        imports = collect_imports(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node, imports)
            if target is None:
                continue
            if target in ENTROPY_CALLS or target.startswith("secrets."):
                yield self.violation(
                    module,
                    node,
                    f"OS entropy source {target}(); derive identifiers from "
                    "the seed or a counter",
                )


def _is_id_key(value: ast.AST) -> bool:
    if isinstance(value, ast.Name) and value.id == "id":
        return True
    if isinstance(value, ast.Lambda):
        body = value.body
        return (
            isinstance(body, ast.Call)
            and isinstance(body.func, ast.Name)
            and body.func.id == "id"
        )
    return False


class DetIdOrderingRule(DetRule):
    id = "DET-004"
    name = "no ordering by id()"

    def check(self, module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            is_order_call = (
                isinstance(callee, ast.Name) and callee.id in ("sorted", "min", "max")
            ) or (isinstance(callee, ast.Attribute) and callee.attr == "sort")
            if not is_order_call:
                continue
            for keyword in node.keywords:
                if keyword.arg == "key" and _is_id_key(keyword.value):
                    yield self.violation(
                        module,
                        node,
                        "ordering by id() is address-space-dependent and "
                        "differs run-to-run; order by a stable field",
                    )


#: builtins that freeze iteration order into a sequence/string
ORDER_FREEZING_CALLS = frozenset({"list", "tuple", "enumerate", "iter", "next"})


class DetSetIterationRule(DetRule):
    id = "DET-005"
    name = "no iteration over bare sets"

    def _flag(self, module, node: ast.AST, what: str) -> Violation:
        return self.violation(
            module,
            node,
            f"{what} iterates an unordered set; wrap in sorted(...) or use "
            "dict.fromkeys(...) so the order cannot leak into emissions",
        )

    def check(self, module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For) and is_set_expression(node.iter):
                yield self._flag(module, node.iter, "for loop")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if is_set_expression(generator.iter):
                        yield self._flag(module, generator.iter, "comprehension")
            elif isinstance(node, ast.Call):
                callee = node.func
                freezes = (
                    isinstance(callee, ast.Name) and callee.id in ORDER_FREEZING_CALLS
                ) or (isinstance(callee, ast.Attribute) and callee.attr == "join")
                if freezes and node.args and is_set_expression(node.args[0]):
                    yield self._flag(module, node.args[0], "order-freezing call")


DET_RULES = (
    DetWallClockRule(),
    DetGlobalRngRule(),
    DetEntropyRule(),
    DetIdOrderingRule(),
    DetSetIterationRule(),
)
