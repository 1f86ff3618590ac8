"""Tests for ``tools/reachability_audit.py``: its inventory rule and its check.

The audit compares the ``(co_filename, co_firstlineno)`` of every called
code object with an AST inventory of ``src/repro``.  These tests pin the
inventory's side of that join on a small fixture module, and run the
check on made-up misses; the 33 traced invocations themselves run in CI's
``reachability`` job, not here.
"""

import importlib.util
import os
import sys
import textwrap

import pytest

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "reachability_audit.py")
_spec = importlib.util.spec_from_file_location("reachability_audit", _TOOL)
audit = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = audit  # its dataclass looks its module up
_spec.loader.exec_module(audit)


FIXTURE = textwrap.dedent('''\
    def tag(function):
        return function


    def plain():
        return 1


    @tag
    @tag
    def decorated():
        return 2


    class Outer:
        def method(self):
            def nested():
                return 3
            return nested()

        @property
        def value(self):
            return 4

        class Inner:
            async def deep(self):
                return 5
''')


@pytest.fixture(scope="module")
def fixture_functions():
    return {f.qualname: f for f in audit.functions_in(FIXTURE, "repro/demo/mod.py", "repro.demo.mod")}


class TestInventoryRule:
    def test_methods_nested_and_async_functions_are_counted(self, fixture_functions):
        assert sorted(fixture_functions) == [
            "Outer.Inner.deep", "Outer.method", "Outer.method.nested", "Outer.value",
            "decorated", "plain", "tag",
        ]

    def test_a_decorated_function_is_keyed_by_its_first_decorator(self, fixture_functions):
        decorated = fixture_functions["decorated"]
        assert decorated.first == 9  # the first ``@tag``, not the ``def`` on line 11
        assert decorated.lines == 4
        assert fixture_functions["Outer.value"].first == 21  # its ``@property`` line

    def test_an_undecorated_function_is_keyed_by_its_def(self, fixture_functions):
        assert (fixture_functions["plain"].first, fixture_functions["plain"].end) == (5, 6)
        assert fixture_functions["Outer.method.nested"].first == 17

    def test_the_key_is_what_the_interpreter_reports(self, fixture_functions):
        namespace = {}
        exec(compile(FIXTURE, "fixture", "exec"), namespace)
        outer = namespace["Outer"]
        reported = {
            "plain": namespace["plain"].__code__.co_firstlineno,
            "decorated": namespace["decorated"].__code__.co_firstlineno,
            "Outer.method": outer.method.__code__.co_firstlineno,
            "Outer.value": outer.value.fget.__code__.co_firstlineno,
            "Outer.Inner.deep": outer.Inner.deep.__code__.co_firstlineno,
        }
        for qualname, line in reported.items():
            assert fixture_functions[qualname].first == line, qualname

    def test_names_and_packages(self, fixture_functions):
        method = fixture_functions["Outer.method"]
        assert method.name == "repro.demo.mod:Outer.method"
        assert method.package == "demo"
        [hook] = audit.functions_in("def hook():\n    pass\n", "repro/demo/__init__.py", "repro.demo")
        assert hook.package == "demo"  # a package's __init__ counts for the package
        [root] = audit.functions_in("def hook():\n    pass\n", "repro/__init__.py", "repro")
        assert root.package == ""


class TestReport:
    def test_never_called_is_the_inventory_minus_the_called_keys(self, fixture_functions):
        functions = list(fixture_functions.values())
        called = {("repro/demo/mod.py", 5), ("repro/demo/mod.py", 9)}
        missed = audit.never_called(functions, called)
        assert {f.qualname for f in missed} == set(fixture_functions) - {"plain", "decorated"}

    def test_package_table_sums_functions_and_lines(self, fixture_functions):
        functions = list(fixture_functions.values())
        table = audit.package_table(functions, [fixture_functions["plain"]])
        total = sum(f.lines for f in functions)
        assert f"| `demo` | 7 | 1 | {total} | 2 |" in table
        assert table.splitlines()[-1] == f"| **total** | 7 | 1 | {total} | 2 |"


class TestCheck:
    def test_an_unclassified_miss_in_a_checked_package_fails(self, fixture_functions):
        functions = list(fixture_functions.values())
        missed = [fixture_functions["plain"]]
        [problem] = audit.check(functions, missed, classified={}, packages=("demo",))
        assert "repro.demo.mod:plain" in problem
        assert audit.check(functions, missed, classified={}, packages=("sim",)) == []
        classified = {"repro.demo.mod:plain": (audit.TEST_HANDLE, "why")}
        assert audit.check(functions, missed, classified=classified, packages=("demo",)) == []

    def test_an_entry_naming_no_function_fails(self, fixture_functions):
        classified = {"repro.demo.mod:gone": (audit.ABSTRACT, "deleted since")}
        [problem] = audit.check(list(fixture_functions.values()), [], classified=classified)
        assert "repro.demo.mod:gone" in problem

    def test_every_table_entry_names_a_function_of_the_tree(self):
        functions = audit.inventory()
        assert audit.check(functions, []) == []
        assert len({f.name for f in functions}) == len(functions)

    def test_every_table_entry_has_one_of_the_four_kinds_and_a_reason(self):
        kinds = {audit.ABSTRACT, audit.TOOL, audit.CLI, audit.TEST_HANDLE}
        for name, (kind, reason) in audit.CLASSIFIED.items():
            assert kind in kinds and reason, name
