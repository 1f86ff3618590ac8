"""Docs cannot rot: examples must run and fenced CLI commands must parse.

Two guarantees:

* every ``examples/*.py`` smoke-runs to completion under the fast budget
  (``REPRO_FAST=1``, which the heavier examples honor with shorter
  simulated durations);
* every ``python -m repro.bench ...`` command fenced in README.md /
  EXPERIMENTS.md names a real subcommand (checked via ``--help``) and,
  where it references an experiment / scenario / adversary by name, that
  name resolves in the corresponding registry; every fenced
  ``python -m perfbench ...`` command parses with the benchmark's own
  argument parser.
"""

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


def _run_help(argv):
    """Invoke the bench CLI in-process expecting a clean ``--help`` exit."""
    from repro.bench.__main__ import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse exits on --help
            code = exit_.code or 0
    assert code == 0, f"{argv} exited {code}: {stderr.getvalue()[-500:]}"
    assert stdout.getvalue().strip(), f"{argv} printed nothing"


def test_docs_contain_bench_commands():
    assert len(FENCED) >= 8, f"expected fenced CLI commands in the docs, got {FENCED}"


@pytest.mark.parametrize(
    "doc,command", FENCED, ids=[f"{d}:{c[:40]}" for d, c in FENCED]
)
def test_fenced_bench_command_parses(doc, command):
    tokens = command.split()
    head = tokens[0]
    if head in ("scenario", "adversary"):
        assert len(tokens) >= 2, f"{doc}: bare '{command}'"
        sub = tokens[1]
        _run_help([head, sub, "--help"])
        if sub == "run":
            name = tokens[2]
            if head == "scenario":
                from repro.scenario.registry import get_scenario

                get_scenario(name)  # raises on unknown names
            else:
                from repro.adversary.registry import get_adversary

                get_adversary(name)
    elif head == "fuzz":
        assert len(tokens) >= 2, f"{doc}: bare '{command}'"
        _run_help(["fuzz", tokens[1], "--help"])
        # Documented corpus artifacts must actually be checked in.
        for token in tokens[2:]:
            if token.startswith("tests/corpus/") and "*" not in token:
                assert os.path.exists(os.path.join(REPO_ROOT, token)), (
                    f"{doc} references missing corpus artifact {token}"
                )
    elif head == "run":
        _run_help(["run", "--help"])
    elif head == "list":
        _run_help(["list"])
    else:
        from repro.bench.__main__ import EXPERIMENTS

        assert head in EXPERIMENTS, f"{doc} references unknown experiment {head!r}"
        _run_help([head, "--help"])


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
