"""A saved environment file of the wrong shape fails its load typed.

Each file ``load_environment`` decodes has one decode boundary: a shape
error raised while decoding it (a list for an object, a missing key, an
unknown enum value) becomes a ``HistoryError`` that names the file and
the record, and ``repro`` prints it as one ``error:`` line with exit 2.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sqlite3

import pytest

from repro.cli import main
from repro.errors import HistoryError
from repro.persistence import (FLOWS_FILE, HISTORY_FILE,
                               HISTORY_SQLITE_FILE, META_FILE, SCHEMA_FILE,
                               load_environment, save_environment)
from repro.scenarios import MAIN_FLOW, ScenarioSpec, materialize_scenario
from repro.scenarios.generator import history_signature, signature_digest


def _flow(edit):
    def apply(flows):
        edit(flows[MAIN_FLOW])
        return flows
    return apply


def _first_instance(edit):
    def apply(history):
        edit(history["instances"][0])
        return history
    return apply


#: name -> (file, edit of its decoded payload, text naming the record)
MUTATIONS = {
    "environment is a list": (META_FILE, lambda meta: [meta],
                              "malformed environment"),
    "schema is a list": (SCHEMA_FILE, lambda schema: [schema],
                         "malformed schema"),
    "history is a list": (HISTORY_FILE, lambda history: [history],
                          "malformed history"),
    "flows are a list": (FLOWS_FILE, lambda flows: [],
                         "malformed flow catalog"),
    "entities are a string": (
        SCHEMA_FILE, lambda schema: {**schema, "entities": "Step1"},
        "malformed schema"),
    "instances are a string": (
        HISTORY_FILE, lambda history: {**history, "instances": "Step1"},
        "malformed history"),
    "a flow has no graph": (FLOWS_FILE, _flow(lambda flow: flow.pop("graph")),
                            f"malformed flow {MAIN_FLOW!r}"),
    "an edge kind is unknown": (
        FLOWS_FILE,
        _flow(lambda flow: flow["graph"]["edges"][0].update(kind="z")),
        f"malformed flow {MAIN_FLOW!r}"),
    "an instance has no id": (
        HISTORY_FILE, _first_instance(lambda spec: spec.pop("instance_id")),
        "malformed history"),
    "blobs are a list": (
        HISTORY_FILE, lambda history: {**history,
                                       "blobs": list(history["blobs"])},
        "malformed history"),
    "a data ref is a number": (
        HISTORY_FILE, _first_instance(lambda spec: spec.update(data_ref=5)),
        "malformed history"),
}


@pytest.fixture(scope="module")
def saved(tmp_path_factory) -> tuple[pathlib.Path, str]:
    """A run corpus ``chain`` scenario saved on the JSON backend, and
    its history digest."""
    directory = tmp_path_factory.mktemp("chain") / "env"
    env = materialize_scenario(ScenarioSpec("s01-chain", "chain", seed=1,
                                            width=2, depth=2, fanout=2))
    env.run(env.plan_flow(MAIN_FLOW))
    save_environment(env, directory)
    return directory, signature_digest(history_signature(env))


def mutated(saved, tmp_path: pathlib.Path, name: str) -> pathlib.Path:
    directory = tmp_path / "env"
    shutil.copytree(saved[0], directory)
    filename, edit, _ = MUTATIONS[name]
    path = directory / filename
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return directory


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_a_wrong_shape_names_its_file_and_record(saved, tmp_path, name):
    directory = mutated(saved, tmp_path, name)
    filename, _, record = MUTATIONS[name]
    with pytest.raises(HistoryError) as caught:
        load_environment(directory)
    message = str(caught.value)
    assert message.startswith(f"{directory / filename}: {record} (")


def test_info_prints_one_error_line(saved, tmp_path, capsys):
    directory = mutated(saved, tmp_path, "a flow has no graph")
    assert main(["info", str(directory)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {directory / FLOWS_FILE}: ")


def test_an_unmutated_directory_loads_the_same_history(saved):
    directory, digest = saved
    env = load_environment(directory)
    assert signature_digest(history_signature(env)) == digest
    assert list(env.flow_catalog.names()) == [MAIN_FLOW]


def test_a_number_data_ref_fails_the_run_naming_the_instance(saved, tmp_path,
                                                            capsys):
    """Decoded as it is, the ref would only fail the run later, naming
    a blob instead of the file."""
    directory = mutated(saved, tmp_path, "a data ref is a number")
    history = json.loads((directory / HISTORY_FILE).read_text())
    first = history["instances"][0]["instance_id"]
    assert main(["run", str(directory), MAIN_FLOW, "--force"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(
        f"error: {directory / HISTORY_FILE}: malformed history (")
    assert f"instance {first!r}: data_ref" in captured.err


def test_a_number_data_ref_in_a_sqlite_row_names_the_file(saved, tmp_path,
                                                         capsys):
    """SQLite rows are decoded when first read, so the run fails, but
    it names the file and the instance."""
    directory = tmp_path / "env"
    env = load_environment(saved[0])
    save_environment(env, directory, backend="sqlite")
    env.db.store.close()
    with sqlite3.connect(directory / HISTORY_SQLITE_FILE) as db:
        first, payload = db.execute("SELECT instance_id, payload FROM "
                                    "instances ORDER BY seq").fetchone()
        db.execute("UPDATE instances SET payload = ? WHERE "
                   "instance_id = ?",
                   (json.dumps({**json.loads(payload), "data_ref": 5}),
                    first))
    db.close()
    assert main(["run", str(directory), MAIN_FLOW, "--force"]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert (f"{directory / HISTORY_SQLITE_FILE}: malformed instance row "
            f"(TypeError: instance {first!r}: data_ref") in captured.err
