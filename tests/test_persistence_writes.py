"""What a save writes: compact JSON, and only the files that changed.

``schema.json``, ``flows.json``, ``environment.json`` and the JSON
backend's ``history.json`` go through one write helper that encodes
compact, key-sorted JSON and leaves a file alone when it already holds
those bytes.  Directories written with the indented encoder of older
builds still load to the same history, and their first save rewrites
them compactly.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import persistence
from repro.core.flow import DynamicFlow
from repro.history import database
from repro.history.sqlite_store import SqliteHistoryStore
from repro.history.store import BACKEND_JSON, BACKEND_SQLITE
from repro.persistence import (FLOWS_FILE, HISTORY_FILE, META_FILE,
                               SCHEMA_FILE, load_environment,
                               save_environment)
from repro.scenarios import (MAIN_FLOW, CorpusSpec, ScenarioSpec,
                             generate_corpus, history_signature,
                             materialize_scenario,
                             register_corpus_encapsulations,
                             spec_from_entry)
from repro.scenarios.generator import signature_digest

JSON_FILES = (SCHEMA_FILE, HISTORY_FILE, FLOWS_FILE, META_FILE)


def saved_scenario(directory: pathlib.Path, backend: str) -> str:
    """A run corpus ``diamond`` scenario saved on ``backend``; returns
    its history digest."""
    env = materialize_scenario(ScenarioSpec(
        "s01-diamond", "diamond", seed=4, width=2, depth=2, fanout=2))
    env.executor(cache="readwrite").execute(env.plan_flow(MAIN_FLOW))
    save_environment(env, directory, backend=backend)
    close(env)
    return signature_digest(history_signature(env))


def close(env) -> None:
    if isinstance(env.db.store, SqliteHistoryStore):
        env.db.store.close()


def indent_like_older_builds(directory: pathlib.Path) -> None:
    """Rewrite the directory's JSON files with the indented encoder
    earlier builds used (``environment.json`` was not key-sorted)."""
    for name in JSON_FILES:
        path = directory / name
        if path.exists():
            payload = json.loads(path.read_text(encoding="utf-8"))
            path.write_text(json.dumps(payload, indent=1,
                                       sort_keys=name != META_FILE),
                            encoding="utf-8")


@pytest.fixture
def writes(monkeypatch):
    """``(file name, written?)`` for every call of the write helper."""
    calls: list[tuple[str, bool]] = []
    helper = database.write_history_json

    def spy(path, payload):
        wrote = helper(path, payload)
        calls.append((pathlib.Path(path).name, wrote))
        return wrote

    monkeypatch.setattr(database, "write_history_json", spy)
    monkeypatch.setattr(persistence, "write_history_json", spy)
    return calls


def test_files_are_compact_sorted_json(tmp_path):
    directory = tmp_path / "proj"
    saved_scenario(directory, BACKEND_JSON)
    for name in JSON_FILES:
        text = (directory / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=(",", ":"))


@pytest.mark.parametrize("backend", [BACKEND_JSON, BACKEND_SQLITE])
def test_indented_directory_loads_and_is_rewritten_compactly(
        backend, tmp_path, writes):
    directory = tmp_path / "proj"
    digest = saved_scenario(directory, backend)
    indent_like_older_builds(directory)
    env = load_environment(directory)
    assert signature_digest(history_signature(env)) == digest
    del writes[:]
    save_environment(env, directory)
    close(env)
    present = [n for n in JSON_FILES if (directory / n).exists()]
    assert writes == [(name, True) for name in present]
    for name in present:
        assert b"\n" not in (directory / name).read_bytes()
    env = load_environment(directory)
    assert signature_digest(history_signature(env)) == digest
    close(env)


@pytest.mark.parametrize("backend", [BACKEND_JSON, BACKEND_SQLITE])
def test_unchanged_save_writes_nothing(backend, tmp_path, writes):
    directory = tmp_path / "proj"
    saved_scenario(directory, backend)
    before = {path.name: path.read_bytes()
              for path in directory.iterdir() if path.suffix == ".json"}
    env = load_environment(directory)
    del writes[:]
    save_environment(env, directory)
    close(env)
    expected = [SCHEMA_FILE, FLOWS_FILE, META_FILE]
    if backend == BACKEND_JSON:
        expected.insert(1, HISTORY_FILE)
    assert writes == [(name, False) for name in expected]
    assert before == {path.name: path.read_bytes()
                      for path in directory.iterdir()
                      if path.suffix == ".json"}


def test_reuse_run_that_records_nothing_writes_no_history(tmp_path,
                                                          writes):
    directory = tmp_path / "proj"
    digest = saved_scenario(directory, BACKEND_JSON)
    env = load_environment(directory)
    register_corpus_encapsulations(env)
    report = env.executor(cache="reuse").execute(env.plan_flow(MAIN_FLOW))
    assert report.runs == 0 and report.cache_hits > 0
    del writes[:]
    save_environment(env, directory)
    assert (HISTORY_FILE, False) in writes
    assert not any(wrote for _, wrote in writes)
    assert signature_digest(history_signature(
        load_environment(directory))) == digest


def test_a_run_rewrites_only_the_history(tmp_path, writes):
    directory = tmp_path / "proj"
    saved_scenario(directory, BACKEND_JSON)
    env = load_environment(directory)
    register_corpus_encapsulations(env)
    report = env.executor().execute(env.plan_flow(MAIN_FLOW), force=True)
    assert report.runs > 0
    del writes[:]
    save_environment(env, directory)
    assert [name for name, wrote in writes if wrote] == [HISTORY_FILE]


def test_helper_compares_bytes_not_just_sizes(tmp_path):
    path = tmp_path / "f.json"
    assert database.write_history_json(path, {"a": 1}) is True
    assert database.write_history_json(path, {"a": 1}) is False
    assert database.write_history_json(path, {"a": 2}) is True  # same size
    assert path.read_text(encoding="utf-8") == '{"a":2}'


def test_flows_are_saved_as_registered_without_copies(tmp_path,
                                                      monkeypatch):
    """A save serialises each catalogued flow itself: ``flows.json`` is
    byte-identical to serialising a fresh copy of every flow, for every
    corpus scenario, freshly materialized and reloaded, and no flow is
    copied on the way."""
    copies: list[str] = []
    copy = DynamicFlow.copy

    def spy(flow, name=None):
        copies.append(flow.graph.name)
        return copy(flow, name)

    # installed first, so the catalog's stored ``flow.copy`` is the spy
    monkeypatch.setattr(DynamicFlow, "copy", spy)
    manifest = generate_corpus(CorpusSpec(seed=3, width=3, depth=3,
                                          fanout=3))
    for entry in manifest["scenarios"]:
        directory = tmp_path / entry["scenario_id"]
        env = materialize_scenario(spec_from_entry(entry))
        for loaded in (False, True):
            if loaded:
                env = load_environment(directory)
            del copies[:]
            save_environment(env, directory)
            assert copies == []
            copied = {name: {
                "description": env.flow_catalog.description(name),
                "graph": env.flow_catalog.select(name).to_dict()}
                for name in env.flow_catalog.names()}
            assert copies == list(env.flow_catalog.names())
            database.write_history_json(tmp_path / "copied.json", copied)
            assert (directory / FLOWS_FILE).read_bytes() == \
                (tmp_path / "copied.json").read_bytes()
            close(env)
