"""Whole-environment persistence: save/load a design session.

The paper's framework persists three things: the task schema (the one
methodology artifact), the design history database (meta-data + shared
physical data), and the flow catalog (the plan-based approach's library).
:func:`save_environment` writes them into a directory;
:func:`load_environment` reconstructs a working
:class:`~repro.execution.context.DesignEnvironment`.

The history supports two storage backends, recorded in the
``environment.json`` meta file:

* ``json`` (default, compatible with every earlier build) — the whole
  history as one ``history.json`` document, fully parsed on load;
* ``sqlite`` — an indexed ``history.sqlite`` WAL file
  (:class:`~repro.history.sqlite_store.SqliteHistoryStore`); loading
  only opens the file, and queries touch just the rows they need.

:func:`migrate_environment` converts an existing directory between the
two in place (idempotent; both backends answer every derivation query
identically).

Tool *encapsulations* are code, not data: after loading, re-run the
site's tool installation (e.g.
:func:`repro.tools.install_standard_tools` registers encapsulations only
— already-installed tool instances are found in the history).
"""

from __future__ import annotations

import os
import pathlib
from contextlib import contextmanager
from typing import Callable, Iterator

from .core.flow import DynamicFlow
from .errors import HistoryError
from .execution.context import DesignEnvironment
from .history.database import (HistoryDatabase, read_history_json,
                               write_history_json)
from .history.datastore import CodecRegistry
from .history.sqlite_store import SqliteHistoryStore
from .history.store import BACKEND_JSON, BACKEND_SQLITE, BACKENDS
from .schema.serialize import schema_from_dict, schema_to_dict

SCHEMA_FILE = "schema.json"
HISTORY_FILE = "history.json"
HISTORY_SQLITE_FILE = "history.sqlite"
FLOWS_FILE = "flows.json"
META_FILE = "environment.json"
TRACE_FILE = "trace.jsonl"
LEDGER_FILE = "ledger.jsonl"
MEMO_FILE = "memo.jsonl"
PROFILE_FILE = "profiles.jsonl"
SLOW_QUERY_FILE = "slow_queries.jsonl"
FORMAT_VERSION = 1


def _check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise HistoryError(
            f"unknown history backend {backend!r}; choose from "
            f"{', '.join(BACKENDS)}")
    return backend


@contextmanager
def _decoding(path: pathlib.Path, record: str) -> Iterator[None]:
    """One decode boundary: a shape error raised while decoding
    ``record`` of the file at ``path`` becomes a :class:`HistoryError`
    naming both."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise HistoryError(
            f"{path}: malformed {record} "
            f"({type(error).__name__}: {error})") from error


def _remove_sqlite(root: pathlib.Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        target = root / (HISTORY_SQLITE_FILE + suffix)
        if target.exists():
            target.unlink()


def _write_sqlite_history(env: DesignEnvironment,
                          root: pathlib.Path) -> None:
    target = root / HISTORY_SQLITE_FILE
    store = env.db.store
    if isinstance(store, SqliteHistoryStore) \
            and store.path == target:
        store.flush()
        return
    # converting from another backend (or another file): rebuild the
    # target from scratch so no rows of a previous conversion survive
    _remove_sqlite(root)
    converted = env.db.converted(SqliteHistoryStore(target),
                                 codecs=env.db.datastore.codecs)
    converted.store.close()


def save_environment(env: DesignEnvironment,
                     directory: str | pathlib.Path, *,
                     backend: str | None = None) -> pathlib.Path:
    """Persist schema, history and flow catalog into a directory.

    ``backend`` selects the history storage format (``json`` or
    ``sqlite``); ``None`` keeps the backend the environment's database
    already uses.  Saving with a different backend converts the history
    on the way out and, once ``environment.json`` names the new one,
    removes the superseded history file, so the directory always has
    exactly one authoritative history.  A JSON file is rewritten only
    when its content changed.  The derivation cache's index lives in
    the directory's ``memo.jsonl``, which the environment's cache
    appends to from then on.
    """
    root = pathlib.Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    backend = _check_backend(backend if backend is not None
                             else env.db.backend)
    write_history_json(root / SCHEMA_FILE, schema_to_dict(env.schema))
    if backend == BACKEND_SQLITE:
        _write_sqlite_history(env, root)
    else:
        env.db.save(root / HISTORY_FILE)
    flows = {}
    for name in env.flow_catalog.names():
        # a registered flow is serialised as it is; a copy is only made
        # for a factory entry
        flow = env.flow_catalog.prototype(name)
        if flow is None:
            flow = env.flow_catalog.select(name)
        flows[name] = {
            "description": env.flow_catalog.description(name),
            "graph": flow.to_dict(),
        }
    write_history_json(root / FLOWS_FILE, flows)
    write_history_json(root / META_FILE, {
        "format": FORMAT_VERSION, "user": env.user,
        "history_backend": backend})
    # environment.json names the new history: retire the old one (an
    # open SQLite store keeps its file until migrate closes it)
    if backend == BACKEND_SQLITE:
        (root / HISTORY_FILE).unlink(missing_ok=True)
    elif not isinstance(env.db.store, SqliteHistoryStore):
        _remove_sqlite(root)
    # the directory's memo is the cache's saved index: point the cache
    # there, first appending what it remembers from memory or from
    # another directory's memo
    memo_path = root / MEMO_FILE
    if env._cache is None and env._shared_memo_path in (None, memo_path):
        env._shared_memo_path = memo_path  # nothing to carry over
    else:
        env.enable_shared_memo(memo_path)
    return root


def load_environment(directory: str | pathlib.Path, *,
                     codecs: CodecRegistry | None = None,
                     clock: Callable[[], float] | None = None
                     ) -> DesignEnvironment:
    """Rebuild an environment from :func:`save_environment` output.

    A file of the wrong shape raises a :class:`HistoryError` that names
    it and the record that did not decode.
    """
    root = pathlib.Path(directory)
    meta_path = root / META_FILE
    if not meta_path.exists():
        raise HistoryError(f"{root} is not a saved environment "
                           f"(missing {META_FILE})")
    with _decoding(meta_path, "environment"):
        meta = read_history_json(meta_path)
        version = meta.get("format")
        user = meta.get("user", "designer")
        backend = meta.get("history_backend", BACKEND_JSON)
    if version != FORMAT_VERSION:
        raise HistoryError(f"unsupported environment format {version!r}")
    schema_path = root / SCHEMA_FILE
    with _decoding(schema_path, "schema"):
        # validated once, by DesignEnvironment below
        schema = schema_from_dict(read_history_json(schema_path),
                                  validate=False)
    if _check_backend(backend) == BACKEND_SQLITE:
        sqlite_path = root / HISTORY_SQLITE_FILE
        if not sqlite_path.exists():
            raise HistoryError(
                f"{root} declares the sqlite history backend but "
                f"{HISTORY_SQLITE_FILE} is missing")
        env = DesignEnvironment(
            schema, user=user, codecs=codecs, clock=clock,
            store=SqliteHistoryStore(sqlite_path))
    else:
        env = DesignEnvironment(schema, user=user, codecs=codecs,
                                clock=clock)
        history_path = root / HISTORY_FILE
        with _decoding(history_path, "history"):
            env.db = HistoryDatabase.from_dict(
                schema, read_history_json(history_path),
                codecs=codecs, clock=clock, bus=env.bus)
    flows_path = root / FLOWS_FILE
    if flows_path.exists():
        with _decoding(flows_path, "flow catalog"):
            flows = list(read_history_json(flows_path).items())
        for name, spec in flows:
            with _decoding(flows_path, f"flow {name!r}"):
                flow = DynamicFlow.from_dict(schema, spec["graph"])
                description = spec.get("description", "")
            env.flow_catalog.register_flow(name, flow,
                                           description=description)
    # The run ledger is on by default for saved environments: every
    # executed flow appends one record to ledger.jsonl.  A read-only
    # directory disables recording (reads via `repro ledger`/`repro
    # health` still work), and a missing ledger file is simply an
    # environment with no longitudinal history yet — never an error.
    if os.access(root, os.W_OK):
        env.attach_ledger(root / LEDGER_FILE)
        # Likewise the cross-process derivation memo, the cache's saved
        # index: concurrent runs of this environment (a procpool run
        # through its coordinator, never its workers) publish and
        # absorb remembered derivations through memo.jsonl.  The memo
        # is attached lazily with the cache, so environments that never
        # touch the cache never create the file.  A cache.json left by
        # older builds is not read.
        env._shared_memo_path = root / MEMO_FILE
    return env


def migrate_environment(directory: str | pathlib.Path, to_backend: str, *,
                        codecs: CodecRegistry | None = None) -> bool:
    """Convert a saved environment's history storage in place.

    Returns ``True`` when a conversion happened, ``False`` when the
    directory already uses ``to_backend`` (the command is idempotent:
    running it twice is a no-op the second time).  Conversion preserves
    every instance id, derivation record, timestamp and data reference,
    so queries answer identically before and after.
    """
    to_backend = _check_backend(to_backend)
    root = pathlib.Path(directory)
    env = load_environment(root, codecs=codecs)
    if env.db.backend == to_backend:
        if isinstance(env.db.store, SqliteHistoryStore):
            env.db.store.close()
        return False
    save_environment(env, root, backend=to_backend)
    if isinstance(env.db.store, SqliteHistoryStore):
        # save_environment leaves the old file alone while its store is
        # still open; close it, then retire the superseded history
        env.db.store.close()
        _remove_sqlite(root)
    return True
