"""CLI self-checks for ``python -m repro.bench``: scenario, the one-cell
handlers (``run``, ``scenario run``, ``adversary run``) and fuzz."""

import dataclasses
import glob
import json
import os

import pytest

from repro.bench.__main__ import main

pytestmark = pytest.mark.scenario


class TestScenarioCLI:
    def test_scenario_list_exits_zero(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("wan-partition", "regional-outage", "flash-crowd",
                     "asymmetric-wan", "lossy-lan", "churn"):
            assert name in out

    def test_experiment_list_mentions_scenario(self, capsys):
        assert main(["list"]) == 0
        assert "scenario" in capsys.readouterr().out

    def test_scenario_run_single(self, capsys, tmp_path):
        json_path = tmp_path / "out.json"
        code = main([
            "scenario", "run", "lossy-lan",
            "--n", "4", "--duration", "6", "--batch-size", "64",
            "--json", str(json_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "lossy-lan" in out
        payload = json.loads(json_path.read_text())
        assert payload["scenario"] == "lossy-lan"
        assert payload["metrics"]["confirmed_blocks"] > 0

    def test_scenario_run_unknown_name_raises(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["scenario", "run", "no-such-scenario"])
        assert exit_info.value.code == 2
        assert "unknown scenario 'no-such-scenario'" in capsys.readouterr().err

    @pytest.mark.slow
    def test_every_named_scenario_runs_via_cli(self, capsys):
        from repro.scenario import available_scenarios

        for name in available_scenarios():
            assert main([
                "scenario", "run", name,
                "--n", "4", "--duration", "10", "--batch-size", "64",
            ]) == 0
        assert "confirmed_blocks" in capsys.readouterr().out

    def test_scenario_sweep_small_grid(self, capsys, tmp_path):
        code = main([
            "scenario", "sweep",
            "--scenarios", "lan,lossy-lan", "--protocols", "ladon-pbft",
            "--n", "4", "--duration", "6", "--batch-size", "64",
            "--cache-dir", str(tmp_path / "cache"), "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "lossy-lan" in out and "lan" in out


#: the smallest cell the one-cell handlers are driven at
SMALL = ["--n", "4", "--duration", "5", "--batch-size", "64"]
CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "corpus", "*.json")))


@pytest.fixture
def colluding_scenario(monkeypatch):
    """A copy of ``byz-equivocation`` whose adversary breaks safety at n=4."""
    from repro.adversary.registry import get_adversary
    from repro.scenario import registry

    spec = dataclasses.replace(
        registry.get_scenario("byz-equivocation"),
        name="byz-equivocation-colluding",
        adversary=get_adversary("equivocation-colluding"),
    )
    monkeypatch.setitem(registry._REGISTRY, spec.name, spec)
    return spec.name


class TestOneCellHandlers:
    """``run``, ``scenario run`` and ``adversary run`` share one report path:
    the same audit, the same JSON keys, the same exit rule."""

    def test_run_exits_zero_on_a_safe_audit(self, capsys):
        assert main(["run", *SMALL]) == 0
        assert "audit: SAFE" in capsys.readouterr().out

    def test_run_fills_environment_from_the_scenario(self, tmp_path):
        json_path = tmp_path / "out.json"
        code = main(["run", "--scenario", "lossy-lan", *SMALL, "--json", str(json_path)])
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["metrics"]["environment"] == "lan"
        assert payload["audit"]["safety_ok"] is True

    def test_scenario_run_exits_nonzero_on_an_unsafe_audit(
        self, colluding_scenario, capsys, tmp_path
    ):
        json_path = tmp_path / "out.json"
        code = main(["scenario", "run", colluding_scenario, *SMALL,
                     "--json", str(json_path)])
        assert code == 1
        assert "VIOLATION" in capsys.readouterr().out
        audit = json.loads(json_path.read_text())["audit"]
        assert audit["safety_ok"] is False and audit["violations"]

    def test_adversary_run_unsafe_without_expectation_exits_nonzero(self, capsys):
        assert main(["adversary", "run", "equivocation-colluding", *SMALL]) == 1
        out = capsys.readouterr().out
        assert "honest" in out and "VIOLATION" in out

    def test_adversary_run_expected_unsafe_exits_zero(self):
        assert main(["adversary", "run", "equivocation-colluding", *SMALL,
                     "--no-baseline", "--expect-unsafe"]) == 0

    def test_adversary_run_negative_control_that_stays_safe_exits_nonzero(self):
        assert main(["adversary", "run", "equivocation", *SMALL,
                     "--no-baseline", "--expect-unsafe"]) == 1

    def test_a_refused_cell_is_a_usage_error(self, capsys):
        # It used to end in a 22-line ValueError traceback and exit 1.
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--duration", "-1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            "python -m repro.bench run: error: "
            "duration must be positive and finite, got -1.0"
        )


class TestFuzzCLI:
    def test_replay_corpus_exits_zero(self, capsys):
        assert CORPUS
        assert main(["fuzz", "replay", *CORPUS]) == 0
        assert capsys.readouterr().out.count("replay OK") == len(CORPUS)

    def test_replay_of_an_altered_digest_exits_nonzero(self, tmp_path):
        artifact = json.loads(open(CORPUS[0], encoding="utf-8").read())
        digest = artifact["expected"]["trace_digest"]
        artifact["expected"]["trace_digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
        path = tmp_path / "altered.json"
        path.write_text(json.dumps(artifact))
        assert main(["fuzz", "replay", str(path)]) == 1

    def test_run_one_seed_completes(self, capsys, tmp_path):
        json_path = tmp_path / "fuzz.json"
        code = main(["fuzz", "run", "--seeds", "1", "--no-shrink", *SMALL,
                     "--json", str(json_path)])
        assert code in (0, 1)
        assert "fuzz run: 1/1 seeds" in capsys.readouterr().out
        payload = json.loads(json_path.read_text())
        assert payload["seeds_run"] == 1
        assert code == (1 if payload["findings"] else 0)
