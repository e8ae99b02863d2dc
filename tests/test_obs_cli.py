"""Tests for the ``repro events`` CLI and the CI pipeline config."""

import json
import pathlib

import pytest

from repro.cli import main
from repro.obs import (JSONLSink, RunLedger, RunRecord, ToolRunStats,
                       read_events, timer_stats_of)
from repro.persistence import LEDGER_FILE, save_environment
from repro.schema import standard as S
from tests.conftest import build_performance_flow


@pytest.fixture
def event_log(stocked_env, tmp_path) -> pathlib.Path:
    """A saved environment directory plus a recorded event log."""
    log = tmp_path / "run.jsonl"
    sink = JSONLSink(log)
    stocked_env.bus.subscribe(sink)
    flow, goal = build_performance_flow(
        stocked_env,
        netlist_id=stocked_env.netlist.instance_id,
        models_id=stocked_env.models.instance_id,
        stimuli_id=stocked_env.stimuli.instance_id,
        simulator_id=stocked_env.tools[S.SIMULATOR].instance_id)
    stocked_env.run(flow)
    sink.close()
    save_environment(stocked_env, tmp_path / "proj")
    return log


class TestEventsCommand:
    def run(self, *argv: str) -> int:
        return main(list(argv))

    def test_renders_all_events(self, event_log, capsys):
        assert self.run("events", str(event_log)) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == len(read_events(event_log))
        assert "flow_started" in out[0]
        assert "flow_finished" in out[-1]

    def test_type_filter(self, event_log, capsys):
        assert self.run("events", str(event_log),
                        "--type", "tool_finished") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert "tool=Simulator" in out[0]

    def test_unknown_type_rejected(self, event_log, capsys):
        assert self.run("events", str(event_log),
                        "--type", "nonsense") == 2
        assert "unknown event type" in capsys.readouterr().err

    def test_tool_filter_and_tail(self, event_log, capsys):
        assert self.run("events", str(event_log), "--tool", "Simulator",
                        "--tail", "1") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1

    def test_json_output_round_trips(self, event_log, capsys):
        assert self.run("events", str(event_log), "--json") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        specs = [json.loads(line) for line in lines]
        assert [s["seq"] for s in specs] == sorted(
            s["seq"] for s in specs)
        assert all(s["schema_version"] == "obs.v1" for s in specs)

    def test_replay_summarizes_metrics(self, event_log, capsys):
        assert self.run("events", str(event_log), "--replay") == 0
        out = capsys.readouterr().out
        assert "execution metrics:" in out
        assert "Simulator" in out
        assert "1 started, 1 finished, 0 failed" in out

    def test_negative_tail_rejected(self, event_log, capsys):
        assert self.run("events", str(event_log), "--tail", "-1") == 2
        assert "--tail must be >= 0" in capsys.readouterr().err

    def test_zero_tail_shows_nothing(self, event_log, capsys):
        assert self.run("events", str(event_log), "--tail", "0") == 0
        assert capsys.readouterr().out == ""

    def test_missing_log_is_error(self, tmp_path, capsys):
        assert self.run("events", str(tmp_path / "none.jsonl")) == 2
        assert "error" in capsys.readouterr().err

    def test_stats_with_events(self, event_log, tmp_path, capsys):
        assert self.run("stats", str(tmp_path / "proj"),
                        "--events", str(event_log)) == 0
        out = capsys.readouterr().out
        assert "history statistics:" in out
        assert "execution metrics:" in out

    def test_session_records_events(self, tmp_path, capsys):
        directory = str(tmp_path / "cliproj")
        log = tmp_path / "session.jsonl"
        assert self.run("init", directory) == 0
        assert self.run("session", directory, "--events", str(log),
                        "-c", "new t", "-c", "place Netlist") == 0
        # nothing executed: flow construction alone emits no events,
        # and the lazy sink leaves no file behind
        assert not log.exists()


def write_ledger(path: pathlib.Path, means, flow="f6") -> RunLedger:
    """A hand-built ledger: one run per mean Simulator duration."""
    ledger = RunLedger(path)
    for index, mean in enumerate(means):
        ledger.append(RunRecord(
            run_id=f"run{index:04d}", timestamp=float(index),
            flow=flow, executor="sequential", cache_policy="off",
            wall_time=mean, serial_time=mean, runs=1, created=1,
            tools={S.SIMULATOR: ToolRunStats(
                1, 1, timer_stats_of([mean]))}))
    return ledger


class TestHealthCommand:
    def run(self, *argv: str) -> int:
        return main(list(argv))

    def test_empty_ledger_reports_no_runs(self, tmp_path, capsys):
        assert self.run("health", str(tmp_path)) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_stable_ledger_passes(self, tmp_path, capsys):
        log = tmp_path / "ledger.jsonl"
        write_ledger(log, [0.1, 0.1, 0.1])
        assert self.run("health", str(log)) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "tool-duration-drift" in out

    def test_drift_flips_exit_code(self, tmp_path, capsys):
        log = tmp_path / "ledger.jsonl"
        write_ledger(log, [0.1, 0.1, 0.1, 0.5])
        assert self.run("health", str(log)) == 1
        assert "[FAIL] tool-duration-drift" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        log = tmp_path / "ledger.jsonl"
        write_ledger(log, [0.1, 0.1, 0.5])
        assert self.run("health", str(log), "--json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "fail"
        assert payload["baseline_runs"] == 2
        names = [c["name"] for c in payload["checks"]]
        assert "tool-duration-drift" in names

    def test_threshold_knobs_and_baselines(self, tmp_path, capsys):
        log = tmp_path / "ledger.jsonl"
        write_ledger(log, [0.1, 0.1, 0.5])
        # demanding a deeper baseline suppresses the gate
        assert self.run("health", str(log), "--min-samples", "5",
                        "--baselines") == 0
        assert "baselines:" in capsys.readouterr().out


class TestLedgerCommand:
    def run(self, *argv: str) -> int:
        return main(list(argv))

    def test_show_tail_and_json(self, tmp_path, capsys):
        log = tmp_path / "ledger.jsonl"
        write_ledger(log, [0.1, 0.2, 0.3])
        assert self.run("ledger", "show", str(log)) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert self.run("ledger", "show", str(log), "--tail", "1",
                        "--json") == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line)["run_id"] == "run0002"

    def test_show_filters_by_flow(self, tmp_path, capsys):
        log = tmp_path / "ledger.jsonl"
        write_ledger(log, [0.1])
        assert self.run("ledger", "show", str(log),
                        "--flow", "other") == 0
        assert capsys.readouterr().out == ""

    def test_compare_accepts_prefixes(self, tmp_path, capsys):
        log = tmp_path / "ledger.jsonl"
        write_ledger(log, [0.1, 0.4])
        assert self.run("ledger", "compare", str(log),
                        "run0000", "run0001") == 0
        out = capsys.readouterr().out
        assert "wall_time: 100.00ms -> 400.00ms (+300.0%)" in out
        assert f"tool {S.SIMULATOR} mean" in out

    def test_compare_ambiguous_prefix_is_error(self, tmp_path, capsys):
        log = tmp_path / "ledger.jsonl"
        write_ledger(log, [0.1, 0.2])
        assert self.run("ledger", "compare", str(log),
                        "run", "run0001") == 2
        assert "ambiguous" in capsys.readouterr().err

    def test_export_prometheus(self, tmp_path, capsys):
        log = tmp_path / "ledger.jsonl"
        write_ledger(log, [0.1, 0.2])
        assert self.run("ledger", "export", str(log)) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_runs_total counter" in out
        assert "repro_runs_total 2" in out
        assert 'flow="f6"' in out

    def test_export_json_to_file(self, tmp_path, capsys):
        log = tmp_path / "ledger.jsonl"
        write_ledger(log, [0.1, 0.2])
        target = tmp_path / "out.jsonl"
        assert self.run("ledger", "export", str(log), "--format",
                        "json", "-o", str(target)) == 0
        lines = target.read_text(encoding="utf-8").splitlines()
        assert [json.loads(li)["run_id"] for li in lines] == \
            ["run0000", "run0001"]


class TestLedgerEndToEnd:
    """The CLI writes, joins and reports the ledger of a real project."""

    def run(self, *argv: str) -> int:
        return main(list(argv))

    @pytest.fixture
    def proj(self, stocked_env, tmp_path) -> pathlib.Path:
        flow, goal = build_performance_flow(
            stocked_env,
            netlist_id=stocked_env.netlist.instance_id,
            models_id=stocked_env.models.instance_id,
            stimuli_id=stocked_env.stimuli.instance_id,
            simulator_id=stocked_env.tools[S.SIMULATOR].instance_id)
        stocked_env.save_flow("simulate", flow)
        directory = tmp_path / "ledgerproj"
        save_environment(stocked_env, directory)
        return directory

    def test_runs_append_and_stats_report(self, proj, capsys):
        for policy in ("off", "readwrite"):
            assert self.run("run", str(proj), "simulate", "--force",
                            "--cache", policy) == 0
        records = RunLedger(proj / LEDGER_FILE).records()
        assert len(records) == 2
        assert records[0].flow == "simulate"
        capsys.readouterr()
        assert self.run("stats", str(proj), "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ledger"]["runs"] == 2
        assert payload["ledger"]["last"]["executor"] == "sequential"
        assert payload["history"]["instances"] > 0
        # only the readwrite run is remembered: the circuit composition
        # and the simulation, one run each
        assert payload["cache"] == {"keys": 2, "results": 2}
        assert self.run("stats", str(proj)) == 0
        out = capsys.readouterr().out
        assert "run ledger: 2 recorded runs" in out
        assert "derivation cache: 2 keys, 2 remembered results" in out

    def test_history_joins_run_record(self, proj, capsys):
        assert self.run("run", str(proj), "simulate", "--trace") == 0
        capsys.readouterr()
        assert self.run("history", str(proj), "Performance#0001") == 0
        out = capsys.readouterr().out
        assert "produced by run" in out
        assert "flow=simulate" in out

    def test_health_of_real_reruns_is_ok(self, proj, capsys):
        for _ in range(3):
            assert self.run("run", str(proj), "simulate",
                            "--force") == 0
        capsys.readouterr()
        assert self.run("health", str(proj)) == 0
        assert "OK" in capsys.readouterr().out


class TestCiPipelineConfig:
    """The workflow file must exist, parse, and run the tier-1 command."""

    WORKFLOW = pathlib.Path(__file__).parent.parent / ".github" \
        / "workflows" / "ci.yml"

    def test_workflow_parses_and_covers_tier1(self):
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(self.WORKFLOW.read_text(encoding="utf-8"))
        triggers = doc.get("on", doc.get(True))
        assert {"push", "pull_request"} <= set(triggers)
        jobs = doc["jobs"]
        assert {"lint", "test", "bench-smoke", "health-smoke"} <= \
            set(jobs)
        health_steps = jobs["health-smoke"]["steps"]
        assert any("check_health_smoke.py" in s.get("run", "")
                   for s in health_steps)
        matrix = jobs["test"]["strategy"]["matrix"]["python-version"]
        assert matrix == ["3.10", "3.11", "3.12"]
        runs = [step.get("run", "") for step in jobs["test"]["steps"]]
        assert any("PYTHONPATH=src python -m pytest -x -q" in r
                   for r in runs)
        bench_steps = jobs["bench-smoke"]["steps"]
        assert any("benchmarks -q" in s.get("run", "")
                   for s in bench_steps)
        assert any("upload-artifact" in s.get("uses", "")
                   for s in bench_steps)

    def test_ruff_configured(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = pathlib.Path(__file__).parent.parent \
            / "pyproject.toml"
        with open(pyproject, "rb") as handle:
            config = tomllib.load(handle)
        ruff = config["tool"]["ruff"]
        assert ruff["line-length"] == 79
        assert ruff["target-version"] == "py310"
        assert "isort" in ruff["lint"]
        assert "ruff" in " ".join(
            config["project"]["optional-dependencies"]["dev"])
