"""Indexed SQLite-WAL backend for the design history database.

The JSON backend must parse the entire history file before it can
answer a single query; at the ROADMAP's million-instance scale that
load dominates every interaction.  This backend keeps the history in
one SQLite file (WAL journal) with:

* an ``instances`` table keyed by instance id, with the numeric id
  suffix and invocation number stored as columns so id allocation
  after reopen is two ``MAX()`` lookups instead of a scan;
* a redundant ``edges`` table indexed by antecedent, maintained
  incrementally on every write (the dask scheduler idiom: constant-time
  forward lookups in exchange for redundant state; the reverse
  direction is each row's own derivation record);
* content-addressed ``blobs`` (canonical JSON text keyed by full
  sha256) with a legacy short-ref alias table — the same tables
  :class:`~repro.history.store.InMemoryHistoryStore` keeps in
  dictionaries.

Files written by older builds also hold ``meta`` and
``derivation_keys`` tables (a copy of the re-execution cache's key
index) and two indexes no statement reads (``idx_instances_invocation``
and ``idx_edges_reverse``); they are left unread.

Reads decode rows lazily into :class:`EntityInstance` objects and
memoize them, so a backward trace over a 10^5-instance history touches
only the rows on the trace path.  Every statement runs through one of
four helpers, each timed by :meth:`HistoryStore._timed` under the
store's re-entrant lock.  Writes batch into one transaction, committed
by :meth:`flush` (persistence calls it on save) or every
``COMMIT_EVERY`` rows, whichever comes first.
"""

from __future__ import annotations

import json
import pathlib
import sqlite3
import threading
from typing import Any, Iterator

from ..errors import HistoryError
from ..obs.profiling import statement_fingerprint
from .instance import EntityInstance
from .store import (BACKEND_SQLITE, HistoryStore, _one, parse_invocation,
                    parse_serial)

#: Pending writes are committed at least this often.
COMMIT_EVERY = 5000

_SCHEMA = """
CREATE TABLE IF NOT EXISTS instances(
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    instance_id TEXT UNIQUE NOT NULL,
    entity_type TEXT NOT NULL,
    serial INTEGER NOT NULL DEFAULT 0,
    invocation TEXT NOT NULL DEFAULT '',
    invocation_num INTEGER NOT NULL DEFAULT 0,
    payload TEXT NOT NULL);
CREATE INDEX IF NOT EXISTS idx_instances_type
    ON instances(entity_type, seq);
CREATE TABLE IF NOT EXISTS edges(
    antecedent TEXT NOT NULL,
    consumer TEXT NOT NULL,
    seq INTEGER NOT NULL);
CREATE INDEX IF NOT EXISTS idx_edges_forward
    ON edges(antecedent, seq);
CREATE TABLE IF NOT EXISTS blobs(
    digest TEXT PRIMARY KEY,
    canonical TEXT NOT NULL,
    size INTEGER NOT NULL);
CREATE TABLE IF NOT EXISTS blob_aliases(
    alias TEXT PRIMARY KEY,
    digest TEXT NOT NULL);
"""

#: The read statements ``repro profile queries`` audits with
#: ``EXPLAIN QUERY PLAN``: every hot lookup this store issues, plus the
#: one deliberate full scan (history iteration has no useful index).
#: Entries are ``(name, statement, dummy params, expect_index)``.
AUDITED_QUERIES: tuple[tuple[str, str, tuple[Any, ...], bool], ...] = (
    ("instance-by-id",
     "SELECT payload FROM instances WHERE instance_id = ?",
     ("x",), True),
    ("instance-exists",
     "SELECT 1 FROM instances WHERE instance_id = ?",
     ("x",), True),
    ("instances-of-type",
     "SELECT instance_id FROM instances WHERE entity_type = ?"
     " ORDER BY seq",
     ("x",), True),
    ("consumers-forward",
     "SELECT consumer FROM edges WHERE antecedent = ? ORDER BY seq",
     ("x",), True),
    ("highest-serial",
     "SELECT MAX(serial) FROM instances WHERE entity_type = ?",
     ("x",), True),
    ("blob-by-digest",
     "SELECT canonical FROM blobs WHERE digest = ?",
     ("x",), True),
    ("history-scan",
     "SELECT instance_id, payload FROM instances ORDER BY seq",
     (), False),
)


class SqliteHistoryStore(HistoryStore):
    """History storage in one indexed SQLite-WAL file."""

    kind = BACKEND_SQLITE

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        existed = self.path.exists()
        try:
            self._conn = sqlite3.connect(str(self.path),
                                         check_same_thread=False)
        except sqlite3.Error as error:
            raise HistoryError(
                f"cannot open history database {self.path}: {error}"
            ) from error
        self._lock = threading.RLock()
        self._cache: dict[str, EntityInstance] = {}
        # forward edges are append-only: a memoized consumer list stays
        # valid as long as add() extends it, so staleness scans that
        # re-walk the same neighborhoods pay one SELECT per node, not
        # one per visit
        self._consumers: dict[str, list[str]] = {}
        self._pending = 0
        try:
            # only a new file gets the tables; an existing one must hold
            # those every history has had since the first build
            missing = {"instances", "edges", "blobs", "blob_aliases"} - {
                row[0] for row in self._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'")}
            if missing and existed:
                self._conn.close()
                raise HistoryError(f"{self.path} is not a history database:"
                                   f" no {', '.join(sorted(missing))} table")
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            self._conn.commit()
        except sqlite3.DatabaseError as error:
            raise HistoryError(
                f"{self.path} is not a history database: {error}"
            ) from error

    def flush(self) -> None:
        with self._lock:
            self._conn.commit()
            self._pending = 0

    def close(self) -> None:
        with self._lock:
            self._conn.commit()
            self._conn.close()

    # -- statements ----------------------------------------------------
    # Single statements take the store's re-entrant lock here; add()
    # holds it across its row and edge inserts.  A write joins the
    # pending batch, which commits before the write that would exceed
    # COMMIT_EVERY, so an instance row and its edges never straddle a
    # commit.
    def _execute(self, statement: str,
                 params: tuple[Any, ...] = ()) -> sqlite3.Cursor:
        with self._lock:
            if self._pending >= COMMIT_EVERY:
                self.flush()
            self._pending += 1
            return self._timed(
                statement, lambda: self._conn.execute(statement, params),
                lambda cursor: max(cursor.rowcount, 0))

    def _executemany(self, statement: str,
                     rows: list[tuple[Any, ...]]) -> None:
        self._timed(statement,
                    lambda: self._conn.executemany(statement, rows),
                    lambda _: len(rows))

    def _fetchone(self, statement: str,
                  params: tuple[Any, ...] = ()) -> Any:
        with self._lock:
            return self._timed(
                statement,
                lambda: self._conn.execute(statement, params).fetchone(),
                _one)

    def _fetchall(self, statement: str,
                  params: tuple[Any, ...] = ()) -> list[Any]:
        with self._lock:
            return self._timed(
                statement,
                lambda: self._conn.execute(statement, params).fetchall())

    def query_plan_audit(self) -> tuple[dict[str, Any], ...]:
        """``EXPLAIN QUERY PLAN`` over every audited read statement.

        One entry per :data:`AUDITED_QUERIES` row: the normalized
        statement, its fingerprint, the plan details, and whether the
        plan uses an index / degrades to a full table scan.  ``repro
        profile queries`` renders this and fails on an indexed
        statement that regressed to a scan.
        """
        audits: list[dict[str, Any]] = []
        with self._lock:
            for name, statement, params, expect_index in AUDITED_QUERIES:
                rows = self._conn.execute(
                    "EXPLAIN QUERY PLAN " + statement, params).fetchall()
                plan = tuple(str(row[-1]) for row in rows)
                uses_index = any(
                    "USING INDEX" in detail
                    or "USING COVERING INDEX" in detail
                    or "PRIMARY KEY" in detail
                    for detail in plan)
                full_scan = any(
                    detail.startswith("SCAN") and "INDEX" not in detail
                    for detail in plan)
                audits.append({
                    "name": name,
                    "statement": " ".join(statement.split()),
                    "fingerprint": statement_fingerprint(statement),
                    "plan": plan,
                    "uses_index": uses_index,
                    "full_scan": full_scan,
                    "expect_index": expect_index,
                })
        return tuple(audits)

    # -- instance rows -------------------------------------------------
    def add(self, instance: EntityInstance) -> None:
        derivation = instance.derivation
        invocation = derivation.invocation if derivation is not None else ""
        entity_type, serial = parse_serial(instance.instance_id)
        with self._lock:
            cursor = self._execute(
                "INSERT INTO instances(instance_id, entity_type, serial,"
                " invocation, invocation_num, payload)"
                " VALUES(?, ?, ?, ?, ?, ?)",
                (instance.instance_id, instance.entity_type,
                 serial if entity_type == instance.entity_type else 0,
                 invocation, parse_invocation(invocation),
                 json.dumps(instance.to_dict(), sort_keys=True,
                            separators=(",", ":"))))
            seq = cursor.lastrowid
            if derivation is not None:
                self._executemany(
                    "INSERT INTO edges(antecedent, consumer, seq)"
                    " VALUES(?, ?, ?)",
                    [(antecedent, instance.instance_id, seq)
                     for antecedent in derivation.all_antecedents()])
                for antecedent in derivation.all_antecedents():
                    memo = self._consumers.get(antecedent)
                    if memo is not None:
                        memo.append(instance.instance_id)
            self._cache[instance.instance_id] = instance

    def replace(self, instance: EntityInstance) -> None:
        self._execute(
            "UPDATE instances SET payload = ? WHERE instance_id = ?",
            (json.dumps(instance.to_dict(), sort_keys=True,
                        separators=(",", ":")),
             instance.instance_id))
        self._cache[instance.instance_id] = instance

    def get(self, instance_id: str) -> EntityInstance | None:
        with self._lock:
            cached = self._cache.get(instance_id)
            if cached is not None:
                return cached
            row = self._fetchone(
                "SELECT payload FROM instances WHERE instance_id = ?",
                (instance_id,))
            if row is None:
                return None
            instance = self._decode(row[0])
            self._cache[instance_id] = instance
            return instance

    def _decode(self, payload: str) -> EntityInstance:
        """One row's instance; a row of the wrong shape raises a
        :class:`HistoryError` naming the file."""
        try:
            return EntityInstance.from_dict(json.loads(payload))
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise HistoryError(
                f"{self.path}: malformed instance row "
                f"({type(error).__name__}: {error})") from error

    def __contains__(self, instance_id: str) -> bool:
        if instance_id in self._cache:
            return True
        return self._fetchone(
            "SELECT 1 FROM instances WHERE instance_id = ?",
            (instance_id,)) is not None

    def __len__(self) -> int:
        return self._fetchone("SELECT COUNT(*) FROM instances")[0]

    def iter_instances(self) -> Iterator[EntityInstance]:
        rows = self._fetchall(
            "SELECT instance_id, payload FROM instances ORDER BY seq")
        for instance_id, payload in rows:
            cached = self._cache.get(instance_id)
            if cached is not None:
                yield cached
            else:
                instance = self._decode(payload)
                self._cache[instance_id] = instance
                yield instance

    def ids_of_type(self, entity_type: str) -> tuple[str, ...]:
        return tuple(row[0] for row in self._fetchall(
            "SELECT instance_id FROM instances WHERE entity_type = ?"
            " ORDER BY seq", (entity_type,)))

    def consumers_of(self, instance_id: str) -> tuple[str, ...]:
        with self._lock:
            memo = self._consumers.get(instance_id)
            if memo is None:
                rows = self._fetchall(
                    "SELECT consumer FROM edges WHERE antecedent = ?"
                    " ORDER BY seq", (instance_id,))
                memo = [row[0] for row in rows]
                self._consumers[instance_id] = memo
            return tuple(memo)

    # -- id allocation support ---------------------------------------------
    def highest_serial(self, entity_type: str) -> int:
        return self._fetchone(
            "SELECT MAX(serial) FROM instances WHERE entity_type = ?",
            (entity_type,))[0] or 0

    def highest_invocation(self) -> int:
        return self._fetchone(
            "SELECT MAX(invocation_num) FROM instances")[0] or 0

    # -- content-addressed blobs --------------------------------------------
    def put_blob(self, digest: str, canonical: str, size: int) -> None:
        self._execute(
            "INSERT OR IGNORE INTO blobs(digest, canonical, size)"
            " VALUES(?, ?, ?)", (digest, canonical, size))

    def get_blob(self, digest: str) -> str | None:
        row = self._fetchone(
            "SELECT canonical FROM blobs WHERE digest = ?", (digest,))
        return row[0] if row is not None else None

    def blob_size(self, digest: str) -> int | None:
        row = self._fetchone(
            "SELECT size FROM blobs WHERE digest = ?", (digest,))
        return row[0] if row is not None else None

    def blob_refs(self) -> tuple[str, ...]:
        return tuple(row[0] for row in self._fetchall(
            "SELECT digest FROM blobs ORDER BY digest"))

    def put_blob_alias(self, alias: str, digest: str) -> None:
        self._execute(
            "INSERT OR IGNORE INTO blob_aliases(alias, digest)"
            " VALUES(?, ?)", (alias, digest))

    def resolve_blob_alias(self, alias: str) -> str | None:
        row = self._fetchone(
            "SELECT digest FROM blob_aliases WHERE alias = ?", (alias,))
        return row[0] if row is not None else None

    def blob_aliases(self) -> tuple[tuple[str, str], ...]:
        return tuple(self._fetchall(
            "SELECT alias, digest FROM blob_aliases ORDER BY alias"))

    def __repr__(self) -> str:
        return f"SqliteHistoryStore({str(self.path)!r})"
