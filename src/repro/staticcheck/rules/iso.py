"""ISO rules: shared-state and aliasing hygiene (the sharding gate).

The planned multi-core DES shards replicas/instances across worker
processes.  That is only a refactor — not a behaviour change — if protocol
code keeps all state per-instance and treats received messages as immutable
values.  These rules pin the three ways that invariant historically breaks:
module-level mutable state, in-place mutation of received messages inside
handlers, and escapes on frozen flyweights: ``object.__setattr__`` outside
``__post_init__``, or a slot descriptor's ``__set__`` outside the one
constructor module, :mod:`repro.core.frozen`.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional, Set

from repro.staticcheck.rules.base import (
    Rule,
    SANS_IO_PACKAGES,
    STATE_FREE_PACKAGES,
    attribute_root,
    collect_imports,
    dotted_name,
    is_mutable_literal,
    walk_with_context,
)
from repro.staticcheck.violations import Violation


class IsoModuleStateRule(Rule):
    id = "ISO-001"
    name = "no module-level mutable state"
    scope = "repro.{protocols,consensus}"

    def applies(self, module) -> bool:
        return module.package in STATE_FREE_PACKAGES

    def check(self, module) -> Iterator[Violation]:
        imports = collect_imports(module.tree)
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            # dunders (__all__ & co.) are assign-once export metadata
            names = [n for n in names if not (n.startswith("__") and n.endswith("__"))]
            if names and is_mutable_literal(value, imports):
                yield self.violation(
                    module,
                    node,
                    f"module-level mutable state {', '.join(names)}; worker "
                    "processes must not share import-time containers — make "
                    "it per-instance or a frozen constant",
                )


#: handler naming convention across the protocol stack
HANDLER_NAME_RE = re.compile(r"^_?(on|handle)_")

#: in-place mutator methods on the standard containers
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "add",
        "update",
        "insert",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "setdefault",
        "sort",
        "reverse",
    }
)


class IsoHandlerMutationRule(Rule):
    id = "ISO-002"
    name = "handlers must not mutate received messages"
    scope = "repro.{protocols,consensus,core,adversary}"

    def applies(self, module) -> bool:
        return module.package in SANS_IO_PACKAGES

    def _handler_params(self, fn) -> Set[str]:
        args = fn.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        return {n for n in names if n not in ("self", "cls")}

    def _check_handler(self, module, fn) -> Iterator[Violation]:
        params = self._handler_params(fn)
        if not params:
            return

        def rooted_in_param(target: ast.AST) -> Optional[str]:
            # only *into* a parameter counts: ``message.x``/``message.x[k]``,
            # not rebinding the bare name (which is local)
            if not isinstance(target, (ast.Attribute, ast.Subscript)):
                return None
            root = attribute_root(target)
            return root if root in params else None

        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                    if isinstance(node, ast.AugAssign)
                    else node.targets
                )
                for target in targets:
                    root = rooted_in_param(target)
                    if root is not None:
                        yield self.violation(
                            module,
                            node,
                            f"handler {fn.name}() mutates received object "
                            f"{root!r}; messages are shared flyweights — "
                            "build a new value instead",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
                    root = rooted_in_param(func.value)
                    if root is not None:
                        yield self.violation(
                            module,
                            node,
                            f"handler {fn.name}() calls .{func.attr}() on "
                            f"received object {root!r}; messages are shared "
                            "flyweights — copy before mutating",
                        )

    def check(self, module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                HANDLER_NAME_RE.match(node.name)
            ):
                yield from self._check_handler(module, node)


#: the one module that may store through a slot descriptor's ``__set__``
CONSTRUCTOR_MODULE = "repro.core.frozen"


class IsoFrozenEscapeRule(Rule):
    id = "ISO-003"
    name = "no object.__setattr__ outside __post_init__, no slot __set__ outside repro.core.frozen"
    scope = "all scanned files"

    def check(self, module) -> Iterator[Violation]:
        for node, ctx in walk_with_context(module.tree):
            if isinstance(node, ast.Attribute) and node.attr == "__set__":
                # Reading ``Cls.field.__set__`` is how a frozen slot is
                # written around ``FrozenInstanceError``: called on the spot
                # or kept as a bound setter, only the constructor may do it.
                if module.module != CONSTRUCTOR_MODULE:
                    yield self.violation(
                        module,
                        node,
                        "descriptor __set__ outside repro.core.frozen; a "
                        "frozen value's slots are written only by its "
                        "constructor",
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            if dotted_name(node.func) != "object.__setattr__":
                continue
            if ctx.function == "__post_init__":
                continue  # the one sanctioned frozen-dataclass init idiom
            yield self.violation(
                module,
                node,
                "object.__setattr__ escape on a frozen object outside "
                "__post_init__; frozen messages must stay immutable after "
                "construction",
            )


ISO_RULES = (IsoModuleStateRule(), IsoHandlerMutationRule(), IsoFrozenEscapeRule())
