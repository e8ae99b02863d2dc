"""Saved environments across a backend switch, and SQLite files that
hold no history.

A save that switches the history backend writes the new history and
``environment.json`` before it removes the superseded history, so an
interrupted switch leaves the old environment loadable.  Every switch
writes ``environment.json``, since it names the new backend; the flows
are rewritten only when they changed.
Loading an existing ``history.sqlite`` without the history tables is a
typed error that names the file, never an empty history.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.cli import main
from repro.errors import HistoryError
from repro.history.sqlite_store import SqliteHistoryStore
from repro.history.store import BACKEND_JSON, BACKEND_SQLITE
from repro.persistence import (HISTORY_FILE, HISTORY_SQLITE_FILE,
                               META_FILE, load_environment,
                               migrate_environment, save_environment)
from repro.scenarios import (MAIN_FLOW, ScenarioSpec,
                             materialize_scenario)
from repro.scenarios.generator import history_signature, signature_digest

HISTORIES = {BACKEND_JSON: HISTORY_FILE,
             BACKEND_SQLITE: HISTORY_SQLITE_FILE}


def saved_chain(directory: pathlib.Path, backend: str) -> str:
    """A run corpus ``chain`` scenario saved on ``backend``; returns
    its history digest."""
    env = materialize_scenario(ScenarioSpec("s01-chain", "chain", seed=1,
                                            width=2, depth=3, fanout=2))
    env.run(env.plan_flow(MAIN_FLOW))
    save_environment(env, directory, backend=backend)
    return signature_digest(history_signature(env))


def loaded(directory: pathlib.Path) -> tuple[str, str]:
    """The backend and the history digest a load finds."""
    env = load_environment(directory)
    try:
        return env.db.backend, signature_digest(history_signature(env))
    finally:
        if isinstance(env.db.store, SqliteHistoryStore):
            env.db.store.close()


def histories(directory: pathlib.Path) -> set[str]:
    return {name for name in HISTORIES.values()
            if (directory / name).exists()}


class TestBackendSwitch:
    @pytest.mark.parametrize("old,new", [(BACKEND_JSON, BACKEND_SQLITE),
                                         (BACKEND_SQLITE, BACKEND_JSON)])
    @pytest.mark.parametrize("switch", ["save", "migrate"])
    def test_interrupted_switch_keeps_the_old_history(
            self, old, new, switch, tmp_path, monkeypatch):
        directory = tmp_path / "proj"
        digest = saved_chain(directory, old)
        # a switch to json writes history.json first: interrupt it there
        # too
        faults = [HISTORY_FILE, META_FILE] if new == BACKEND_JSON \
            else [META_FILE]
        for fault in faults:
            env = load_environment(directory)
            write_text = pathlib.Path.write_text

            def failing(self, *args, **kwargs):
                if self.name == fault:
                    raise OSError(f"interrupted while writing {fault}")
                return write_text(self, *args, **kwargs)

            monkeypatch.setattr(pathlib.Path, "write_text", failing)
            with pytest.raises(OSError, match="interrupted"):
                if switch == "save":
                    save_environment(env, directory, backend=new)
                else:
                    migrate_environment(directory, new)
            monkeypatch.undo()
            if isinstance(env.db.store, SqliteHistoryStore):
                env.db.store.close()
            assert HISTORIES[old] in histories(directory)
            assert loaded(directory) == (old, digest)

    @pytest.mark.parametrize("old,new", [(BACKEND_JSON, BACKEND_SQLITE),
                                         (BACKEND_SQLITE, BACKEND_JSON)])
    def test_completed_switch_leaves_one_history(self, old, new,
                                                 tmp_path):
        directory = tmp_path / "proj"
        digest = saved_chain(directory, old)
        assert histories(directory) == {HISTORIES[old]}
        assert migrate_environment(directory, new) is True
        assert histories(directory) == {HISTORIES[new]}
        assert loaded(directory) == (new, digest)


class TestHistoryWithoutTables:
    @pytest.fixture
    def emptied(self, tmp_path) -> pathlib.Path:
        """A saved sqlite chain scenario truncated to a zero-byte
        ``history.sqlite``."""
        directory = tmp_path / "proj"
        saved_chain(directory, BACKEND_SQLITE)
        for suffix in ("-wal", "-shm"):
            (directory / (HISTORY_SQLITE_FILE + suffix)).unlink(
                missing_ok=True)
        (directory / HISTORY_SQLITE_FILE).write_bytes(b"")
        return directory

    def test_load_names_the_file(self, emptied):
        path = emptied / HISTORY_SQLITE_FILE
        with pytest.raises(HistoryError, match="no blob_aliases, blobs, "
                           "edges, instances table") as caught:
            load_environment(emptied)
        assert str(path) in str(caught.value)
        assert path.stat().st_size == 0  # the load wrote nothing

    @pytest.mark.parametrize("command", [["info"], ["run", MAIN_FLOW]])
    def test_cli_prints_the_error_and_exits_2(self, emptied, command,
                                              capsys):
        assert main([command[0], str(emptied), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(emptied / HISTORY_SQLITE_FILE) in err

    def test_only_a_new_file_gets_the_tables(self, tmp_path):
        store = SqliteHistoryStore(tmp_path / "fresh.sqlite")
        store.close()
        SqliteHistoryStore(tmp_path / "fresh.sqlite").close()  # reopens
        (tmp_path / "empty.sqlite").write_bytes(b"")
        with pytest.raises(HistoryError, match="empty.sqlite is not a "
                           "history database"):
            SqliteHistoryStore(tmp_path / "empty.sqlite")
