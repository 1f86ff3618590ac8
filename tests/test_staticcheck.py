"""Tests for :mod:`repro.staticcheck` — the determinism & isolation suite.

Covers:

* a positive (violating) and negative (clean near-miss) fixture for every
  rule ID, driven through the real engine via ``check_source``;
* inline suppressions: same-line, standalone-line, wildcard, wrong-id,
  and the mandatory-reason policy (``SC-001``);
* rule selection (`--select`/`--ignore` semantics);
* the CLI: exit codes, text and JSON output schemas, ``--list-rules``;
* **the enforcement test**: the full suite over ``src/repro/`` must report
  zero violations — this is what makes the invariants permanent.
"""

import json
import os

import pytest

from repro.staticcheck import (
    ALL_RULES,
    ALL_RULE_IDS,
    check_paths,
    check_source,
    select_rules,
)
from repro.staticcheck.cli import main as cli_main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

HOT = "# staticcheck: hot-path\n"

#: rule id -> (dotted module the fixture pretends to live in, violating code)
POSITIVE_FIXTURES = {
    "SEAM-001": (
        "repro.protocols._fixture",
        "from repro.sim.simulator import Simulator\n",
    ),
    "SEAM-002": ("repro.consensus._fixture", "import asyncio\n"),
    "DET-001": (
        # sim, not consensus: in a sans-I/O package the bare ``import time``
        # would *also* fire SEAM-002, muddying the selection tests
        "repro.sim._fixture",
        "import time\n\ndef f():\n    return time.time()\n",
    ),
    "DET-002": (
        "repro.core._fixture",
        "import random\n\ndef f():\n    return random.randint(0, 10)\n",
    ),
    "DET-003": (
        "repro.sim._fixture",
        "import os\n\ndef f():\n    return os.urandom(8)\n",
    ),
    "DET-004": (
        "repro.core._fixture",
        "def f(blocks):\n    return sorted(blocks, key=id)\n",
    ),
    "DET-005": (
        "repro.scenario._fixture",
        "def f(xs):\n    for x in set(xs):\n        print(x)\n",
    ),
    "ISO-001": ("repro.consensus._fixture", "PENDING = {}\n"),
    "ISO-002": (
        "repro.consensus._fixture",
        "class H:\n"
        "    def on_message(self, sender, message):\n"
        "        message.count += 1\n",
    ),
    "ISO-003": (
        "repro.consensus._fixture",
        "class M:\n"
        "    def poke(self):\n"
        "        object.__setattr__(self, 'x', 1)\n",
    ),
    "HOT-001": (
        "repro.consensus._fixture",
        HOT + "from dataclasses import dataclass\n\n"
        "@dataclass\n"
        "class FooMessage:\n"
        "    a: int\n",
    ),
    "HOT-002": (
        "repro.consensus._fixture",
        HOT + "def f(x):\n    return f'value={x}'\n",
    ),
    "HOT-003": (
        "repro.metrics._fixture",
        "def f(x, acc=[]):\n    acc.append(x)\n    return acc\n",
    ),
    "SHARD-001": (
        "repro.shard._fixture",
        "import multiprocessing\n\n"
        "def hub():\n"
        "    return multiprocessing.Manager().dict()\n",
    ),
    "SHARD-002": (
        "repro.shard._fixture",
        "import pickle\n\ndef encode(x):\n    return pickle.dumps(x)\n",
    ),
}

#: rule id -> clean near-miss code in the same scope (must NOT fire that rule)
NEGATIVE_FIXTURES = {
    "SEAM-001": (
        "repro.protocols._fixture",
        "from typing import TYPE_CHECKING\n"
        "from repro.sim.latency import UniformLatency\n"
        "if TYPE_CHECKING:\n"
        "    from repro.sim.network import Network\n",
    ),
    "SEAM-002": (
        "repro.sim._fixture",  # sim package is allowed to see the engine
        "import time\n",
    ),
    "DET-001": (
        "repro.consensus._fixture",
        "def f(self):\n    return self.runtime.now()\n",
    ),
    "DET-002": (
        "repro.core._fixture",
        "import random\n\ndef f(seed):\n    return random.Random(seed).random()\n",
    ),
    "DET-003": (
        "repro.sim._fixture",
        "import uuid\n\ndef f(s):\n    return uuid.UUID(s)\n",
    ),
    "DET-004": (
        "repro.core._fixture",
        "def f(blocks):\n    return sorted(blocks, key=lambda b: b.rank)\n",
    ),
    "DET-005": (
        "repro.scenario._fixture",
        "def f(xs):\n"
        "    if 3 in {1, 2, 3}:\n"
        "        pass\n"
        "    for x in sorted(set(xs)):\n"
        "        print(x)\n"
        "    for y in dict.fromkeys(xs):\n"
        "        print(y)\n",
    ),
    "ISO-001": (
        "repro.consensus._fixture",
        "from types import MappingProxyType\n"
        "from typing import Dict\n"
        "__all__ = ['KINDS']\n"
        "KINDS = ('a', 'b')\n"
        "TABLE = MappingProxyType({'a': 1})\n"
        "annotated_only: Dict[str, int]\n",
    ),
    "ISO-002": (
        "repro.consensus._fixture",
        "class H:\n"
        "    def on_message(self, sender, message):\n"
        "        votes = list(message.votes)\n"
        "        votes.append(sender)\n"
        "        self.count += message.weight\n"
        "    def helper(self, accumulator):\n"
        "        accumulator.append(1)\n",
    ),
    "ISO-003": (
        "repro.consensus._fixture",
        "class M:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'size', 10)\n",
    ),
    "HOT-001": (
        "repro.consensus._fixture",
        HOT + "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True, slots=True)\n"
        "class FooMessage:\n"
        "    a: int\n\n"
        "@dataclass(slots=True)\n"
        "class RoundState:\n"  # not a message: mutable per-round log entry
        "    r: int\n",
    ),
    "HOT-002": (
        "repro.consensus._fixture",
        HOT + "def f(x):\n"
        "    if x < 0:\n"
        "        raise ValueError(f'bad {x}')\n"
        "    assert x < 100, f'huge {x}'\n"
        "    return x\n\n"
        "class C:\n"
        "    def __repr__(self):\n"
        "        return f'C({self!r})'\n",
    ),
    "HOT-003": (
        "repro.metrics._fixture",
        "def f(x, acc=None, tail=()):\n"
        "    acc = [] if acc is None else acc\n"
        "    acc.append(x)\n"
        "    return acc\n",
    ),
    "SHARD-001": (
        # message passing (Pipe/Process from a context) is the sanctioned
        # idiom; only *shared* state is banned
        "repro.shard._fixture",
        "import multiprocessing\n\n"
        "def spawn(entry):\n"
        "    ctx = multiprocessing.get_context('fork')\n"
        "    parent, child = ctx.Pipe(duplex=True)\n"
        "    return ctx.Process(target=entry, args=(child,)), parent\n",
    ),
    "SHARD-002": (
        # repro.shard.ipc is the chokepoint: pickling there is the point
        "repro.shard.ipc",
        "import pickle\n\ndef encode(x):\n    return pickle.dumps(x)\n",
    ),
}


def rule_ids(violations):
    return [v.rule for v in violations]


# ------------------------------------------------------------ rule fixtures
class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", sorted(POSITIVE_FIXTURES))
    def test_positive_fixture_fires(self, rule_id):
        module, source = POSITIVE_FIXTURES[rule_id]
        found = rule_ids(check_source(source, module=module))
        assert rule_id in found, f"{rule_id} did not fire on its fixture"

    @pytest.mark.parametrize("rule_id", sorted(NEGATIVE_FIXTURES))
    def test_negative_fixture_is_clean(self, rule_id):
        module, source = NEGATIVE_FIXTURES[rule_id]
        found = rule_ids(check_source(source, module=module))
        assert rule_id not in found, f"{rule_id} false-positive on clean code"

    def test_every_rule_has_both_fixtures(self):
        assert set(POSITIVE_FIXTURES) == set(ALL_RULE_IDS)
        assert set(NEGATIVE_FIXTURES) == set(ALL_RULE_IDS)

    def test_rules_scope_by_package(self):
        # the same wall-clock call is fine in bench (measurement code) and
        # in the realtime backend (it IS the wall clock)
        _, source = POSITIVE_FIXTURES["DET-001"]
        assert not check_source(source, module="repro.bench._fixture")
        assert not check_source(source, module="repro.runtime.realtime")
        # engine imports are fine outside the sans-I/O packages
        _, seam = POSITIVE_FIXTURES["SEAM-001"]
        assert not check_source(seam, module="repro.bench._fixture")

    def test_seam_catches_aliased_and_submodule_imports(self):
        for source in (
            "import repro.sim.simulator as sim_engine\n",
            "from repro.sim import network\n",
        ):
            found = rule_ids(check_source(source, module="repro.consensus._fixture"))
            assert "SEAM-001" in found, source

    def test_det_follows_import_aliases(self):
        source = "from time import time as now\n\ndef f():\n    return now()\n"
        found = rule_ids(check_source(source, module="repro.core._fixture"))
        assert "DET-001" in found

    def test_hot_rules_require_the_marker(self):
        _, source = POSITIVE_FIXTURES["HOT-002"]
        unmarked = source.replace(HOT, "")
        assert "HOT-002" not in rule_ids(
            check_source(unmarked, module="repro.consensus._fixture")
        )


# ------------------------------------------------------------- suppressions
class TestSuppressions:
    MODULE = "repro.consensus._fixture"

    def test_same_line_suppression(self):
        source = "PENDING = {}  # staticcheck: ignore[ISO-001] -- registry seeded before fork\n"
        assert not check_source(source, module=self.MODULE)

    def test_standalone_line_suppression_covers_next_line(self):
        source = (
            "# staticcheck: ignore[ISO-001] -- registry seeded before fork\n"
            "PENDING = {}\n"
        )
        assert not check_source(source, module=self.MODULE)

    def test_wildcard_suppression(self):
        source = "PENDING = {}  # staticcheck: ignore[*] -- fixture\n"
        assert not check_source(source, module=self.MODULE)

    def test_wrong_rule_id_does_not_suppress(self):
        source = "PENDING = {}  # staticcheck: ignore[DET-001] -- wrong id\n"
        assert "ISO-001" in rule_ids(check_source(source, module=self.MODULE))

    def test_reasonless_suppression_is_an_sc001_violation(self):
        source = "PENDING = {}  # staticcheck: ignore[ISO-001]\n"
        found = rule_ids(check_source(source, module=self.MODULE))
        assert "ISO-001" not in found  # the suppression still works ...
        assert "SC-001" in found  # ... but the missing reason is flagged

    def test_multiple_ids_in_one_comment(self):
        source = (
            "def f(x, acc=[]):  # staticcheck: ignore[HOT-003,DET-001] -- fixture\n"
            "    return acc\n"
        )
        assert not check_source(source, module="repro.metrics._fixture")


# ---------------------------------------------------------------- selection
class TestSelection:
    def test_family_prefix_selects_all_members(self):
        det = select_rules(["DET"])
        assert [rule.id for rule in det] == [
            "DET-001",
            "DET-002",
            "DET-003",
            "DET-004",
            "DET-005",
        ]

    def test_ignore_drops_members(self):
        remaining = {rule.id for rule in select_rules(ignore=["HOT", "SEAM-001"])}
        assert "SEAM-002" in remaining
        assert not remaining & {"HOT-001", "HOT-002", "HOT-003", "SEAM-001"}

    def test_unknown_selector_raises(self):
        with pytest.raises(ValueError, match="unknown rule selector"):
            select_rules(["NOPE-999"])

    def test_rule_metadata_complete(self):
        for rule in ALL_RULES:
            assert rule.id and rule.name and rule.scope
            assert rule.severity in ("warning", "error")


# --------------------------------------------------------------------- CLI
def _fixture_tree(tmp_path, rule_id):
    """Materialise one positive fixture as a real repro-shaped tree."""
    module, source = POSITIVE_FIXTURES[rule_id]
    relpath = os.path.join(*module.split(".")) + ".py"
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return str(tmp_path)


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = _fixture_tree(tmp_path, "ISO-001")
        clean = tmp_path / "repro" / "consensus" / "_fixture.py"
        clean.write_text("KINDS = ('a', 'b')\n")
        assert cli_main([root]) == 0
        assert "0 violations" in capsys.readouterr().out

    @pytest.mark.parametrize("rule_id", sorted(POSITIVE_FIXTURES))
    def test_each_rule_fails_the_cli(self, tmp_path, capsys, rule_id):
        root = _fixture_tree(tmp_path, rule_id)
        assert cli_main([root]) == 1
        assert rule_id in capsys.readouterr().out

    def test_json_output_schema(self, tmp_path, capsys):
        root = _fixture_tree(tmp_path, "DET-001")
        assert cli_main([root, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["exit_code"] == 1
        assert payload["checked_files"] == 1
        assert payload["counts"].get("DET-001", 0) >= 1
        (violation,) = [
            v for v in payload["violations"] if v["rule"] == "DET-001"
        ]
        for key in ("path", "line", "col", "severity", "message", "snippet", "fingerprint"):
            assert key in violation
        assert violation["severity"] == "error"
        assert violation["line"] == 4

    def test_select_and_ignore(self, tmp_path):
        root = _fixture_tree(tmp_path, "DET-001")
        assert cli_main([root, "--select", "SEAM"]) == 0
        assert cli_main([root, "--select", "DET-001"]) == 1
        assert cli_main([root, "--ignore", "DET"]) == 0

    def test_unknown_selector_is_usage_error(self, tmp_path):
        root = _fixture_tree(tmp_path, "DET-001")
        with pytest.raises(SystemExit) as excinfo:
            cli_main([root, "--select", "BOGUS"])
        assert excinfo.value.code == 2

    def test_missing_path_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["definitely/not/here"])
        assert excinfo.value.code == 2

    def test_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULE_IDS:
            assert rule_id in out

    def test_syntax_error_reported_not_crashing(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        assert cli_main([str(tmp_path)]) == 1
        assert "SC-000" in capsys.readouterr().out


# ------------------------------------------------------- the enforcement test
class TestShippedTree:
    def test_full_suite_over_src_repro_is_clean(self):
        """The tentpole invariant: every SEAM/DET/ISO/HOT rule holds over the
        shipped tree (or carries an explicit, reasoned suppression)."""
        report = check_paths([os.path.join(SRC, "repro")])
        details = "\n".join(
            v.format_text() for v in report.parse_errors + report.violations
        )
        assert report.exit_code == 0, f"staticcheck violations:\n{details}"
        assert report.checked_files > 70  # the walk really saw the tree

    def test_hot_modules_are_marked(self):
        """The PR 5 flyweight/hot-path modules must stay opted in to HOT."""
        from repro.staticcheck.engine import SourceModule

        for relpath in (
            "consensus/messages.py",
            "consensus/quorum.py",
            "consensus/pbft.py",
            "core/ordering.py",
            "sim/network.py",
            "sim/events.py",
            "sim/simulator.py",
            "runtime/des.py",
        ):
            module = SourceModule.from_path(os.path.join(SRC, "repro", relpath))
            assert module.is_hot, f"{relpath} lost its hot-path marker"

    def test_every_shipped_suppression_has_a_reason(self):
        """Redundant with SC-001 but cheap: grep the tree for reasonless
        suppressions so the policy failure names the file directly."""
        offenders = []
        for root, dirs, names in os.walk(os.path.join(SRC, "repro")):
            # the checker's own sources document the syntax; skip them like
            # the engine's discovery does
            dirs[:] = [d for d in dirs if d != "staticcheck"]
            for name in names:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as handle:
                    for lineno, line in enumerate(handle, start=1):
                        if "staticcheck: ignore[" in line and "--" not in line:
                            offenders.append(f"{path}:{lineno}")
        assert not offenders, f"suppressions without reasons: {offenders}"
