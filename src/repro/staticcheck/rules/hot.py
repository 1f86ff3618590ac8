"""HOT rules: hot-path hygiene for modules carrying the hot-path marker.

A module opts in with a marker comment near its docstring::

    # staticcheck: hot-path

The PR 4/PR 5 hot-path overhauls established these by convention; the rules
make them permanent: flyweight message classes stay ``frozen=True,
slots=True`` dataclasses, no string formatting runs per-event (f-strings in
``raise``/``assert`` and ``__repr__``/``__str__`` are cold and exempt), and
no function grows a mutable default argument (that one is tree-wide — it is
an aliasing bug everywhere, not just on hot paths).

Frozen is not slow to build.  A frozen dataclass's generated ``__init__``
stores each field through ``object.__setattr__``, 2.3–3.0 µs for an
11-field ``Block`` on CPython 3.11 against 0.4–0.6 µs unfrozen, so the hot
value classes also carry :func:`repro.core.frozen.fast_init`, which stores
through the slots' descriptors (1.05–1.1 µs per ``Block``).  HOT-001 still
asks for ``frozen=True, slots=True``; ISO-003 keeps those descriptors'
``__set__`` inside :mod:`repro.core.frozen`.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.staticcheck.rules.base import (
    Rule,
    collect_imports,
    dotted_name,
    is_mutable_literal,
    walk_with_context,
)
from repro.staticcheck.violations import Violation


class HotRule(Rule):
    scope = "modules marked '# staticcheck: hot-path'"

    def applies(self, module) -> bool:
        return module.is_hot


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.AST]:
    for decorator in node.decorator_list:
        name = dotted_name(
            decorator.func if isinstance(decorator, ast.Call) else decorator
        )
        if name in ("dataclass", "dataclasses.dataclass"):
            return decorator
    return None


def _truthy_keyword(decorator: ast.AST, keyword_name: str) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == keyword_name:
            return isinstance(keyword.value, ast.Constant) and bool(
                keyword.value.value
            )
    return False


class HotMessageShapeRule(HotRule):
    id = "HOT-001"
    name = "message dataclasses must be frozen + slots"

    def check(self, module) -> Iterator[Violation]:
        # message-likeness is transitive within the module: a class is a
        # message if its name ends in "Message" or it derives from one
        message_classes: Set[str] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            base_names = [dotted_name(base) or "" for base in node.bases]
            is_message = node.name.endswith("Message") or any(
                name.endswith("Message") or name.split(".")[-1] in message_classes
                for name in base_names
            )
            if not is_message:
                continue
            message_classes.add(node.name)
            decorator = _dataclass_decorator(node)
            if decorator is None:
                yield self.violation(
                    module,
                    node,
                    f"message class {node.name} is not a dataclass; hot-path "
                    "messages are @dataclass(frozen=True, slots=True) "
                    "flyweights",
                )
                continue
            missing = [
                flag
                for flag in ("frozen", "slots")
                if not _truthy_keyword(decorator, flag)
            ]
            if missing:
                yield self.violation(
                    module,
                    node,
                    f"message class {node.name} must set "
                    f"{', '.join(f'{flag}=True' for flag in missing)} on "
                    "@dataclass (flyweight contract)",
                )


#: dunder methods that only run in debuggers/logs, never per-event
COLD_FUNCTIONS = ("__repr__", "__str__")


class HotStringFormattingRule(HotRule):
    id = "HOT-002"
    name = "no per-event string formatting"

    def check(self, module) -> Iterator[Violation]:
        for node, ctx in walk_with_context(module.tree):
            if ctx.in_raise or ctx.in_assert or ctx.function in COLD_FUNCTIONS:
                continue
            if ctx.function is None:
                continue  # module/class level runs once at import
            if isinstance(node, ast.JoinedStr):
                yield self.violation(
                    module,
                    node,
                    "f-string on a hot path; precompute the string or move "
                    "formatting off the per-event path",
                )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                if isinstance(node.left, ast.Constant) and isinstance(
                    node.left.value, str
                ):
                    yield self.violation(
                        module, node, "%-formatting on a hot path"
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "format"
                    and isinstance(func.value, ast.Constant)
                    and isinstance(func.value.value, str)
                ):
                    yield self.violation(
                        module, node, "str.format() on a hot path"
                    )


class HotMutableDefaultRule(Rule):
    id = "HOT-003"
    name = "no mutable default arguments"
    scope = "all scanned files"

    def check(self, module) -> Iterator[Violation]:
        imports = collect_imports(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if is_mutable_literal(default, imports):
                    yield self.violation(
                        module,
                        default,
                        f"mutable default argument in {node.name}(); the "
                        "default is shared across every call — use None and "
                        "construct inside",
                    )


HOT_RULES = (HotMessageShapeRule(), HotStringFormattingRule(), HotMutableDefaultRule())
