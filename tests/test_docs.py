"""Docs cannot rot: examples must run and fenced CLI commands must parse.

Two guarantees:

* every ``examples/*.py`` smoke-runs to completion under the fast budget
  (``REPRO_FAST=1``, which the heavier examples honor with shorter
  simulated durations);
* every ``python -m repro.bench ...`` command fenced in README.md /
  EXPERIMENTS.md parses in full with the CLI's own parser, and every
  scenario / adversary / protocol it names resolves in the corresponding
  registry; every fenced ``python -m perfbench ...`` command parses with
  the benchmark's own argument parser.
"""

import argparse
import contextlib
import io
import os
import re
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")
DOCS = ("README.md", "EXPERIMENTS.md")

EXAMPLE_SCRIPTS = sorted(
    name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
)


# ------------------------------------------------------------ (a) examples
@pytest.mark.scenario
@pytest.mark.parametrize("script", EXAMPLE_SCRIPTS)
def test_example_smoke_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    env["REPRO_FAST"] = "1"
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, (
        f"examples/{script} failed:\n{result.stdout[-1000:]}\n{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"examples/{script} produced no output"


def test_every_example_is_mentioned_in_the_docs():
    docs = "".join(
        open(os.path.join(REPO_ROOT, doc), encoding="utf-8").read() for doc in DOCS
    )
    missing = [s for s in EXAMPLE_SCRIPTS if s not in docs]
    assert not missing, f"examples never referenced in README/EXPERIMENTS: {missing}"


# ------------------------------------------------------- (b) fenced CLI
def _fenced_commands(pattern):
    """``(doc, arguments)`` of every code-fence line matching ``pattern``."""
    commands = []
    for doc in DOCS:
        text = open(os.path.join(REPO_ROOT, doc), encoding="utf-8").read()
        for fence in re.findall(r"```[a-z]*\n(.*?)```", text, flags=re.DOTALL):
            for line in fence.splitlines():
                match = re.search(pattern, line)
                if match:
                    commands.append((doc, match.group(1).strip()))
    return commands


FENCED = _fenced_commands(r"python -m repro\.bench\s+(.*)")


def test_docs_contain_bench_commands():
    assert len(FENCED) >= 8, f"expected fenced CLI commands in the docs, got {FENCED}"


def _parse_bench(doc, command):
    """Parse ``command`` with the CLI's own parser, failing on any argparse exit."""
    from repro.bench.__main__ import build_parser

    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            return build_parser().parse_args(command.split())
        except SystemExit as exit_:
            pytest.fail(f"{doc}: '{command}' exited {exit_.code}: {stderr.getvalue()[-500:]}")


@pytest.mark.parametrize(
    "doc,command", FENCED, ids=[f"{d}:{c[:40]}" for d, c in FENCED]
)
def test_fenced_bench_command_parses(doc, command):
    """The full argv parses: a typo'd subcommand or flag, or a bad value,
    fails here.  Every scenario, adversary and protocol the command names,
    positional or by flag, resolves in its registry (each raises on an
    unknown name), and every corpus artifact it names is checked in."""
    from repro.adversary.registry import get_adversary
    from repro.protocols.registry import resolve_protocol
    from repro.scenario.registry import get_scenario

    command = command.split("#")[0].strip()  # drop trailing fence annotations
    args = _parse_bench(doc, command)
    if getattr(args, "name", None) is not None:
        (get_scenario if args.command == "scenario" else get_adversary)(args.name)
    if getattr(args, "scenario", None) is not None:
        get_scenario(args.scenario)
    if getattr(args, "adversary", None) is not None:
        get_adversary(args.adversary)
    if getattr(args, "scenarios", "all") != "all":
        for name in args.scenarios.split(","):
            get_scenario(name)
    for protocol in getattr(args, "protocols", getattr(args, "protocol", "")).split(","):
        if protocol:
            resolve_protocol(protocol)
    artifacts = getattr(args, "artifact", [])
    for path in [artifacts] if isinstance(artifacts, str) else artifacts:
        if "*" not in path:
            assert os.path.exists(os.path.join(REPO_ROOT, path)), (
                f"{doc} references missing corpus artifact {path}"
            )


#: the one-cell subcommands' runtime flags
_BACKEND = {"--runtime": "des", "--timescale": 1.0}
#: the sweep flags of grid experiments, scenario sweep and ``list``
_SWEEP = {"--workers": 1, "--cache-dir": ".sweep-cache", "--no-cache": False,
          "--quiet": False, "--json": None}

#: every subcommand's option strings and defaults; a flag or default that
#: changes must change here too
CLI_OPTIONS = {
    "list": _SWEEP,
    **{name: _SWEEP for name in ("fig10", "fig2b", "fig5", "fig6", "fig7", "table1", "table2")},
    **{name: {"--json": None} for name in ("appendix-a", "fig2a", "fig8")},
    "run": {"--protocol": "ladon-pbft", "--n": 4, "--duration": 5.0, "--seed": 0,
            "--batch-size": 1024, **_BACKEND, "--json": None,
            "--scenario": None, "--adversary": None},
    "scenario list": {},
    "scenario run": {"--protocol": "ladon-pbft", "--n": 8, "--duration": 30.0, "--seed": 0,
                     "--batch-size": 1024, **_BACKEND, "--json": None},
    "scenario sweep": {"--scenarios": "all", "--protocols": "ladon-pbft,iss-pbft",
                       "--n": 8, "--duration": 30.0, "--seed": 0, "--batch-size": 1024,
                       **_SWEEP},
    "adversary list": {},
    "adversary run": {"--protocol": "ladon-pbft", "--n": 4, "--duration": 30.0, "--seed": 0,
                      "--batch-size": 1024, **_BACKEND, "--json": None, "--scenario": None,
                      "--no-baseline": False, "--expect-unsafe": False},
    "fuzz run": {"--protocol": "ladon-pbft", "--n": 4, "--duration": 8.0, "--seed": 0,
                 "--batch-size": 64, "--json": None, "--seeds": 16, "--base-seed": 0,
                 "--max-delay": 1.2, "--probability": 0.08, "--view-change-timeout": 1.0,
                 "--propose-timeout": 2.0, "--scenario": None, "--adversary": None,
                 "--workers": 1, "--budget": None, "--keep-going": False,
                 "--no-shrink": False, "--shrink-tests": 48, "--artifact-dir": None},
    "fuzz replay": {},
    "fuzz shrink": {"--shrink-tests": 96, "--output": None},
}


def _leaf_options(parser, path=()):
    """``(subcommand, {option: default})`` for every leaf of the parser tree."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _leaf_options(child, path + (name,))
            return
    yield " ".join(path), {
        action.option_strings[-1]: action.default
        for action in parser._actions
        if action.option_strings and action.dest != "help"
    }


def test_every_subcommand_keeps_its_options_and_defaults():
    from repro.bench.__main__ import build_parser

    assert dict(_leaf_options(build_parser())) == CLI_OPTIONS


FENCED_PERFBENCH = [
    (doc, command.split("#")[0].strip())  # drop trailing fence annotations
    for doc, command in _fenced_commands(r"python -m perfbench\s+(--.*)")
]


@pytest.mark.parametrize(
    "doc,command", FENCED_PERFBENCH, ids=[f"{d}:{c[:30]}" for d, c in FENCED_PERFBENCH]
)
def test_fenced_perfbench_command_parses(doc, command):
    """The one perf harness: a documented flag or workload name that the
    benchmark no longer accepts makes argparse exit, which fails here."""
    from perfbench.run import parse_args

    parse_args(command.split())


FENCED_STATICCHECK = _fenced_commands(r"python -m repro\.staticcheck\s*(.*)")


def test_docs_contain_staticcheck_commands():
    assert len(FENCED_STATICCHECK) >= 4, (
        f"expected fenced staticcheck commands in the docs, got {FENCED_STATICCHECK}"
    )


@pytest.mark.parametrize(
    "doc,command",
    FENCED_STATICCHECK,
    ids=[f"{d}:{c[:40]}" for d, c in FENCED_STATICCHECK],
)
def test_fenced_staticcheck_command_runs_clean(doc, command):
    """The documented commands must work verbatim — and since the shipped
    tree is clean, every one of them must exit 0."""
    from repro.staticcheck.cli import main

    command = command.split("#")[0].strip()  # drop trailing fence annotations
    argv = [
        os.path.join(REPO_ROOT, "src") if token == "src" else token
        for token in command.split()
    ]
    stream = io.StringIO()
    code = main(argv, stream=stream)
    assert code == 0, f"{doc}: '{command}' exited {code}:\n{stream.getvalue()[-500:]}"
    assert stream.getvalue().strip(), f"{doc}: '{command}' printed nothing"


def test_readme_architecture_map_matches_source_tree():
    readme = open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8").read()
    packages = sorted(
        name
        for name in os.listdir(os.path.join(REPO_ROOT, "src", "repro"))
        if os.path.isdir(os.path.join(REPO_ROOT, "src", "repro", name))
        and not name.startswith("__")
    )
    missing = [pkg for pkg in packages if f"`{pkg}/`" not in readme]
    assert not missing, f"README architecture map is missing packages: {missing}"
