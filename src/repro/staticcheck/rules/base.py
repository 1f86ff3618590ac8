"""Rule framework: the :class:`Rule` base class and shared AST helpers.

Every rule is a small object with an ``id``, a ``severity``, a path-scope
predicate (:meth:`Rule.applies`) and an AST pass (:meth:`Rule.check`) that
yields :class:`~repro.staticcheck.violations.Violation` records.  Rules are
stateless across files; everything they need about the file under analysis
comes in through the :class:`~repro.staticcheck.engine.SourceModule`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.staticcheck.violations import Violation

if TYPE_CHECKING:
    from repro.staticcheck.engine import SourceModule

# ------------------------------------------------------------- path scopes
#: packages that must stay sans-I/O: they may talk to the world only through
#: the ``repro.runtime`` seam (PR 4), never the simulator/network/OS directly
SANS_IO_PACKAGES = ("protocols", "consensus", "core", "adversary")

#: packages that must carry no module-level mutable state (the sharding
#: prerequisite: a worker process must be able to import these with no
#: cross-instance aliasing)
STATE_FREE_PACKAGES = ("protocols", "consensus")

#: packages reachable from a DES run — everything here must be deterministic
#: given the seed
DES_REACHABLE_PACKAGES = SANS_IO_PACKAGES + (
    "sim",
    "scenario",
    "workload",
    "crypto",
    "metrics",
    "runtime",
    "fuzz",
    "shard",
)

#: the sharded-execution scope: the shard support package plus the hub
#: runtime.  Everything here coordinates worker *processes*, so the SHARD
#: rules police cross-process state and serialization discipline.
SHARD_SCOPE_PACKAGES = ("shard",)
SHARD_SCOPE_MODULES = ("repro.runtime.sharded",)

#: the one module allowed to (un)pickle: IPC framing is centralised so the
#: wire format — and the frozen-flyweight payload contract — has one owner
SHARD_IPC_MODULE = "repro.shard.ipc"


class Rule:
    """Base class: subclass, set the class attributes, implement check()."""

    id: str = ""
    name: str = ""
    severity: str = "error"
    #: one-line scope description for ``--list-rules`` and the docs table
    scope: str = "all scanned files"

    def applies(self, module: "SourceModule") -> bool:
        return True

    def check(self, module: "SourceModule") -> Iterator[Violation]:
        raise NotImplementedError

    # ------------------------------------------------------------- helpers
    def violation(
        self, module: "SourceModule", node: ast.AST, message: str
    ) -> Violation:
        line = getattr(node, "lineno", 1)
        snippet = ""
        if 1 <= line <= len(module.lines):
            snippet = module.lines[line - 1].strip()
        return Violation(
            rule=self.id,
            severity=self.severity,
            path=module.display_path,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            snippet=snippet,
        )


# --------------------------------------------------------------- AST utils
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, None for anything dynamic."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def attribute_root(node: ast.AST) -> Optional[str]:
    """The root Name of an Attribute/Subscript chain (``m`` in ``m.a[k].b``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def collect_imports(tree: ast.Module) -> Dict[str, str]:
    """Map local alias -> dotted origin for every import in the module.

    ``import time as t`` -> ``{"t": "time"}``;
    ``from time import time as now`` -> ``{"now": "time.time"}``;
    ``from repro.sim import network`` -> ``{"network": "repro.sim.network"}``.
    Relative imports keep their leading dots so rules can match suffixes.
    """
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = origin
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{prefix}.{alias.name}" if prefix else alias.name
    return imports


def resolve_call_target(call: ast.Call, imports: Dict[str, str]) -> Optional[str]:
    """Dotted origin of a call target, following import aliases.

    With ``from time import time as now``, the call ``now()`` resolves to
    ``"time.time"``; ``t.monotonic()`` (after ``import time as t``) resolves
    to ``"time.monotonic"``.
    """
    name = dotted_name(call.func)
    if name is None:
        return None
    root, _, rest = name.partition(".")
    origin = imports.get(root, root)
    return f"{origin}.{rest}" if rest else origin


@dataclass(slots=True)
class NodeContext:
    """Lexical context of one AST node during :func:`walk_with_context`."""

    function_stack: Tuple[str, ...] = ()
    class_stack: Tuple[str, ...] = ()
    in_raise: bool = False
    in_assert: bool = False
    in_type_checking: bool = False

    @property
    def function(self) -> Optional[str]:
        return self.function_stack[-1] if self.function_stack else None


def _is_type_checking_test(test: ast.AST) -> bool:
    name = dotted_name(test)
    return name in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def walk_with_context(tree: ast.AST) -> Iterator[Tuple[ast.AST, NodeContext]]:
    """Yield ``(node, context)`` for every node, tracking lexical context."""

    def visit(node: ast.AST, ctx: NodeContext) -> Iterator[Tuple[ast.AST, NodeContext]]:
        yield node, ctx
        child_ctx = ctx
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            child_ctx = NodeContext(
                function_stack=ctx.function_stack + (node.name,),
                class_stack=ctx.class_stack,
                in_type_checking=ctx.in_type_checking,
            )
        elif isinstance(node, ast.ClassDef):
            child_ctx = NodeContext(
                function_stack=ctx.function_stack,
                class_stack=ctx.class_stack + (node.name,),
                in_type_checking=ctx.in_type_checking,
            )
        elif isinstance(node, ast.Raise):
            child_ctx = NodeContext(
                function_stack=ctx.function_stack,
                class_stack=ctx.class_stack,
                in_raise=True,
                in_assert=ctx.in_assert,
                in_type_checking=ctx.in_type_checking,
            )
        elif isinstance(node, ast.Assert):
            child_ctx = NodeContext(
                function_stack=ctx.function_stack,
                class_stack=ctx.class_stack,
                in_raise=ctx.in_raise,
                in_assert=True,
                in_type_checking=ctx.in_type_checking,
            )
        elif isinstance(node, ast.If) and _is_type_checking_test(node.test):
            guarded = NodeContext(
                function_stack=ctx.function_stack,
                class_stack=ctx.class_stack,
                in_raise=ctx.in_raise,
                in_assert=ctx.in_assert,
                in_type_checking=True,
            )
            for child in node.body:
                yield from visit(child, guarded)
            for child in node.orelse:
                yield from visit(child, ctx)
            return
        for child in ast.iter_child_nodes(node):
            yield from visit(child, child_ctx)

    yield from visit(tree, NodeContext())


#: calls that build a mutable container (used by ISO-001 / HOT-003)
MUTABLE_FACTORIES = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "defaultdict",
        "collections.deque",
        "deque",
        "collections.Counter",
        "Counter",
        "collections.OrderedDict",
        "OrderedDict",
    }
)


def is_mutable_literal(node: ast.AST, imports: Dict[str, str]) -> bool:
    """True for ``[]``/``{}``/``{x}`` displays, comprehensions, and calls to
    the standard mutable-container factories."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        target = resolve_call_target(node, imports)
        return target in MUTABLE_FACTORIES
    return False


def is_set_expression(node: ast.AST) -> bool:
    """True when the expression's value is an (order-unstable) set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in ("set", "frozenset")
    return False
