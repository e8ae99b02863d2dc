"""Tests for whole-environment persistence and the CLI."""

import json

import pytest

from repro.cli import main
from repro.errors import HistoryError, SchemaError
from repro.execution import DesignEnvironment
from repro.persistence import (SCHEMA_FILE, load_environment,
                               save_environment)
from repro.schema import standard as S
from repro.schema.dependency import data_dep
from repro.schema.entity import data
from repro.schema.schema import TaskSchema
from repro.tools import register_standard_encapsulations
from tests.conftest import build_performance_flow


class TestEnvironmentPersistence:
    def test_roundtrip_preserves_everything(self, stocked_env, tmp_path):
        env = stocked_env
        flow, goal = build_performance_flow(
            env,
            netlist_id=env.netlist.instance_id,
            models_id=env.models.instance_id,
            stimuli_id=env.stimuli.instance_id,
            simulator_id=env.tools[S.SIMULATOR].instance_id)
        env.run(flow)
        for node in flow.nodes():
            node.unbind()
            node.produced = ()
        env.save_flow("simulate", flow, "standard simulation")
        directory = tmp_path / "proj"
        save_environment(env, directory)

        restored = load_environment(directory)
        assert restored.user == env.user
        assert len(restored.db) == len(env.db)
        assert restored.schema.name == env.schema.name
        assert "simulate" in restored.flow_catalog
        assert restored.flow_catalog.description("simulate") == \
            "standard simulation"
        # physical data survives, typed
        perf = restored.db.browse(S.PERFORMANCE)[-1]
        assert restored.db.data(perf).worst_delay_ns > 0

    def test_reloaded_environment_can_execute(self, stocked_env,
                                              tmp_path):
        env = stocked_env
        directory = tmp_path / "proj"
        save_environment(env, directory)
        restored = load_environment(directory)
        register_standard_encapsulations(restored)
        flow, goal = build_performance_flow(
            restored,
            netlist_id=restored.db.latest(S.NETLIST).instance_id,
            models_id=restored.db.latest(S.DEVICE_MODELS).instance_id,
            stimuli_id=restored.db.latest(S.STIMULI).instance_id,
            simulator_id=restored.db.latest(
                S.SIMULATOR, include_subtypes=False).instance_id)
        report = restored.run(flow)
        assert report.created
        # ids continue after the loaded ones, never colliding
        assert all(i not in env.db for i in report.created)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(HistoryError):
            load_environment(tmp_path / "nothing")

    def test_bad_format_rejected(self, tmp_path):
        directory = tmp_path / "bad"
        directory.mkdir()
        (directory / "environment.json").write_text('{"format": 99}')
        with pytest.raises(HistoryError):
            load_environment(directory)

    def test_load_validates_the_schema_once(self, stocked_env, tmp_path,
                                            monkeypatch):
        save_environment(stocked_env, tmp_path / "proj")
        validated = []
        validate = TaskSchema.validate

        def counted(schema):
            validated.append(schema)
            validate(schema)

        monkeypatch.setattr(TaskSchema, "validate", counted)
        load_environment(tmp_path / "proj")
        assert len(validated) == 1

    def test_schema_with_a_mandatory_cycle_fails_the_load(self,
                                                          tmp_path):
        schema = TaskSchema("loop")
        schema.add_entities([data("A"), data("B")])
        schema.add_dependency(data_dep("A", "B"))
        directory = tmp_path / "proj"
        save_environment(DesignEnvironment(schema), directory)
        payload = json.loads((directory / SCHEMA_FILE).read_text())
        payload["dependencies"].append(
            {**payload["dependencies"][0], "source": "B", "target": "A"})
        (directory / SCHEMA_FILE).write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="cycle"):
            load_environment(directory)


class TestCli:
    def run(self, *argv: str) -> int:
        return main(list(argv))

    def test_init_info_browse(self, tmp_path, capsys):
        directory = str(tmp_path / "proj")
        assert self.run("init", directory, "--user", "cli") == 0
        assert self.run("info", directory) == 0
        output = capsys.readouterr().out
        assert "odyssey" in output
        assert self.run("browse", directory, "Simulator") == 0
        output = capsys.readouterr().out
        assert "Simulator#0001" in output

    def test_session_persists_across_invocations(self, tmp_path,
                                                 capsys):
        directory = str(tmp_path / "proj")
        self.run("init", directory)
        self.run("session", directory, "-c", "place Stimuli")
        capsys.readouterr()
        # a later invocation sees nothing new in the db (no instances
        # were installed), but the environment loads cleanly
        assert self.run("info", directory) == 0

    def test_session_script_file(self, tmp_path, capsys):
        directory = str(tmp_path / "proj")
        self.run("init", directory)
        script = tmp_path / "script.txt"
        script.write_text("place Performance\npopup n0\n")
        assert self.run("session", directory, "--script",
                        str(script)) == 0
        output = capsys.readouterr().out
        assert "placed Performance[n0]" in output
        assert "Expand" in output

    def test_stale_exit_codes(self, tmp_path, capsys):
        directory = str(tmp_path / "proj")
        self.run("init", directory)
        assert self.run("stale", directory) == 0
        assert "up to date" in capsys.readouterr().out

    def test_history_and_uses(self, tmp_path, capsys, stocked_env):
        env = stocked_env
        flow, goal = build_performance_flow(
            env,
            netlist_id=env.netlist.instance_id,
            models_id=env.models.instance_id,
            stimuli_id=env.stimuli.instance_id,
            simulator_id=env.tools[S.SIMULATOR].instance_id)
        env.run(flow)
        directory = str(tmp_path / "proj")
        save_environment(env, directory)
        assert self.run("history", directory, goal.produced[0]) == 0
        output = capsys.readouterr().out
        assert env.netlist.instance_id in output
        assert self.run("uses", directory, env.netlist.instance_id,
                        "Performance") == 0
        output = capsys.readouterr().out
        assert goal.produced[0] in output

    def test_schema_dot(self, tmp_path, capsys):
        directory = str(tmp_path / "proj")
        self.run("init", directory, "--schema", "fig1")
        assert self.run("schema", directory) == 0
        assert "digraph" in capsys.readouterr().out

    def test_error_exit_code(self, tmp_path, capsys):
        directory = str(tmp_path / "proj")
        self.run("init", directory)
        assert self.run("history", directory, "Ghost#9999") == 2
        assert "error:" in capsys.readouterr().err

    def test_stats_command(self, tmp_path, capsys):
        directory = str(tmp_path / "proj")
        self.run("init", directory)
        assert self.run("stats", directory) == 0
        output = capsys.readouterr().out
        assert "history statistics:" in output
        assert "installed" in output

    def test_retrace_command(self, tmp_path, capsys, stocked_env):
        from repro.tools import edit_session

        env = stocked_env
        flow, goal = build_performance_flow(
            env,
            netlist_id=env.netlist.instance_id,
            models_id=env.models.instance_id,
            stimuli_id=env.stimuli.instance_id,
            simulator_id=env.tools[S.SIMULATOR].instance_id)
        env.run(flow)
        session = edit_session(env, S.CIRCUIT_EDITOR, [
            {"op": "rename", "name": "v2"}], name="s")
        edit_flow, edit_goal = env.goal_flow(S.EDITED_NETLIST)
        edit_flow.expand(edit_goal, include_optional=["previous"])
        previous = edit_flow.graph.data_suppliers(
            edit_goal.node_id)["previous"]
        edit_flow.bind(edit_flow.node(previous),
                       env.netlist.instance_id)
        edit_flow.bind(edit_flow.sole_node_of_type(S.CIRCUIT_EDITOR),
                       session.instance_id)
        env.run(edit_flow)
        directory = str(tmp_path / "proj")
        save_environment(env, directory)
        perf_id = goal.produced[0]
        assert self.run("stale", directory) == 1
        out = capsys.readouterr().out
        assert perf_id in out
        assert self.run("retrace", directory, perf_id) == 0
        out = capsys.readouterr().out
        assert "retraced" in out
        # the retrace was persisted: the reloaded environment holds a
        # fresh performance derived from the new netlist version
        from repro.history import is_up_to_date

        reloaded = load_environment(directory)
        fresh = reloaded.db.browse(S.PERFORMANCE)[-1]
        assert fresh.instance_id != perf_id
        assert is_up_to_date(reloaded.db, fresh.instance_id)
