"""Self-test of the benchmark, at ``--smoke`` size.

Run with ``python -m pytest perfbench -q`` from the repository root (about
half a minute).  Not part of the tier-1 ``testpaths``.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import compare, run
from perfbench import metrics as M
from perfbench.workloads import RUN_SECONDS, WORKLOADS, smoke, visible_cores

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
END_TO_END = {m.name for m in M.END_TO_END}
PER_LAYER = {m.name for m in M.PER_LAYER}


def smoke_run(tmp_path_factory, *extra):
    out = tmp_path_factory.mktemp("perfbench") / "result.json"
    code = run.main(["--smoke", "--out", str(out), *extra])
    with open(out, encoding="utf-8") as fh:
        return code, json.load(fh), out


@pytest.fixture(scope="module")
def first(tmp_path_factory):
    return smoke_run(tmp_path_factory)


@pytest.fixture(scope="module")
def second(tmp_path_factory):
    return smoke_run(tmp_path_factory)


# ------------------------------------------------------------ the declaration
def test_benchmark_json_is_the_declared_tables():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        document = json.load(fh)
    assert document == M.benchmark_json(WORKLOADS, RUN_SECONDS)


def test_declaration_meets_the_contract_limits():
    document = M.benchmark_json(WORKLOADS, RUN_SECONDS)
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    names += [w["name"] for w in document["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in document["end_to_end"])
    assert len(document["per_layer"]) <= 128 and 1 <= document["run_seconds"] <= 60


# --------------------------------------------------------------- what is emitted
def test_every_declared_metric_is_emitted_and_nothing_else(first):
    code, document, _out = first
    assert code == 0
    emitted_layers = set()
    for name, row in document["workloads"].items():
        if row["skipped"]:
            assert visible_cores() < 2
            continue
        assert row["failed_runs"] == 0 and row["attempted_runs"] > 0, row["first_failure"]
        assert set(row["end_to_end"]) == END_TO_END, name
        assert set(row["per_layer"]) <= PER_LAYER, name
        emitted_layers |= set(row["per_layer"])
        assert row["per_layer"]["trace.coverage"][0] >= 0.9, name
    if visible_cores() >= 2:
        assert emitted_layers == PER_LAYER


def test_spans_are_written_with_parents(first):
    _code, _document, out = first
    with open(str(out) + ".spans.jsonl", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert {"child", "setup", "protocols.build", "wall", "runtime.run"} <= {s["name"] for s in spans}
    for span in spans:
        assert span["end"] >= span["start"]
        if span["name"] != "child":
            assert span["parent"] is not None


@pytest.mark.parametrize("trace,declared", [("0", END_TO_END), ("1", PER_LAYER)])
def test_driver_form_prints_exactly_the_declared_metrics(capsys, trace, declared):
    code = run.main(["--smoke", "--workload", "pbft-wan-n32", "--seed", "2",
                     "--seconds", "20", "--trace", trace])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == declared
    for name, entry in result["metrics"].items():
        assert entry["unit"] == M.BY_NAME[name].unit
        if name in END_TO_END:
            assert entry["value"] > 0


# ------------------------------------------------------------------ determinism
def test_same_seed_reproduces_every_exact_metric(first, second):
    lines = compare.compare(first[1], second[1])
    assert not [line for line in lines if line.endswith("CHANGED")]
    assert [line for line in lines if line.endswith("same")]


def test_another_seed_changes_exact_metrics(first, tmp_path_factory):
    _code, other, _out = smoke_run(tmp_path_factory, "--seed", "1", "--workload", "pbft-wan-n32")
    changed = {line.split()[0] for line in compare.compare(first[1], other) if line.endswith("CHANGED")}
    assert "sim.events" in changed and "consensus.calls" in changed


# --------------------------------------------------------------------- failures
def _run_with_doctored_child(monkeypatch, doctor, *extra):
    real = run.spawn_child
    seen = []

    def doctored(spec, timeout_s):
        record = real(spec, timeout_s)
        if "wall_s" in record:
            seen.append(record)
            doctor(record, len(seen))
        return record

    monkeypatch.setattr(run, "spawn_child", doctored)
    return run.main(["--smoke", "--workload", "pbft-wan-n32", "--trace", "0", *extra])


def test_failed_audit_fails_the_run(monkeypatch, capsys):
    code = _run_with_doctored_child(monkeypatch, lambda record, nth: record.update(safety_ok=False))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False and result["failed"] == 1


def test_digest_drift_between_repeats_fails_the_run(monkeypatch, capsys):
    def doctor(record, nth):
        if nth == 2:
            record["digest"] = "0" * 64

    code = _run_with_doctored_child(monkeypatch, doctor, "--repeats", "2")
    out = capsys.readouterr().out
    assert code == 1 and "differs from first repeat" in out
    assert json.loads(out.strip().splitlines()[-1])["failed"] == 1


def test_timeout_kills_the_child_and_its_shard_workers():
    workload = smoke(next(w for w in WORKLOADS if w.oracle))
    spec = run.Outcome(workload, 0).spec("timeout")
    spec["cell"]["duration"] = 4000.0  # cannot finish
    record = run.spawn_child(spec, timeout_s=1.5)
    assert record == {"error": "timed out after 1.5 s"}
    leftovers = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            cmdline = Path("/proc", pid, "cmdline").read_bytes()
            state = Path("/proc", pid, "stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if b"#timeout" in cmdline and state != "Z":  # the run id rides in the child's argv
            leftovers.append(pid)
    assert not leftovers


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pbft-wan-n32", "--seed", "0",
         "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ---------------------------------------------------------------------- compare
def _document(wall):
    row = {"skipped": None, "failed_runs": 0, "attempted_runs": len(wall), "digest": "d",
           "end_to_end": {"wall_s": wall, "sim_tps": [100.0] * len(wall)}, "per_layer": {}}
    return {"seed": 0, "smoke": False, "workloads": {"w": row}}


@pytest.mark.parametrize("base,candidate,expected", [
    ([10.0, 10.1, 10.2, 10.3], [10.1, 10.2, 10.3, 10.4], "unchanged"),
    ([10.0, 10.1, 10.2, 10.3], [13.5, 13.6, 13.7, 13.8], "REGRESSED"),
    ([10.0, 10.1, 10.2, 10.3], [6.0, 6.1, 6.2, 6.3], "improved"),
    ([10.0, 10.1, 10.2, 10.3], [7.0, 10.0, 11.0, 14.0], "unresolved"),  # spread > bound
    ([10.0], [10.1], "unresolved"),  # a single sample has no spread
])
def test_compare_verdicts(base, candidate, expected):
    lines = compare.compare(_document(base), _document(candidate))
    wall = next(line for line in lines if line.split()[0] == "wall_s")
    assert wall.endswith(expected)
    tps = next(line for line in lines if line.split()[0] == "sim_tps")
    assert tps.endswith("same")
