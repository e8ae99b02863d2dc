"""Pluggable storage backends for the design history database.

Every instance has its own meta-data record but may share physical
data with others (paper footnote 5).  A :class:`HistoryStore` keeps
both: instance rows with the indexes the queries read, and
content-addressed blobs (canonical JSON text keyed by full sha256) with
their legacy short-ref aliases.  Backward chaining reads each
instance's derivation record, which already names its antecedents;
forward chaining and staleness scans read a forward (antecedent ->
consumers) index that each store extends inside :meth:`add` (the dask
scheduler idiom: redundant state for constant-time edge access).

Two implementations exist:

* :class:`InMemoryHistoryStore` — plain dictionaries, the working set
  behind the JSON persistence format (``history.json``);
* :class:`~repro.history.sqlite_store.SqliteHistoryStore` — the same
  rows and blobs as tables of an indexed SQLite-WAL file, so opening a
  million-instance history costs the rows a query touches, not a full
  parse.

Every read is timed by :meth:`HistoryStore._timed` when a query
recorder is attached.  The re-execution cache keeps its key index in
the shared memo (:mod:`repro.execution.shared_memo`), not in a store.
:class:`~repro.history.database.HistoryDatabase` routes every read and
write through this interface, so the query layers on top stay
backend-agnostic.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from .instance import EntityInstance

#: Backend names accepted by persistence and the CLI ``--backend`` flag.
BACKEND_JSON = "json"
BACKEND_SQLITE = "sqlite"
BACKENDS = (BACKEND_JSON, BACKEND_SQLITE)


def parse_serial(instance_id: str) -> tuple[str, int]:
    """Split ``"Netlist#0007"`` into ``("Netlist", 7)`` (0 if unnumbered)."""
    entity_type, _, number = instance_id.partition("#")
    return entity_type, int(number) if number.isdigit() else 0


def parse_invocation(invocation: str) -> int:
    """Numeric part of a ``"run#00042"`` invocation id (0 if unnumbered)."""
    _, _, number = invocation.partition("#")
    return int(number) if number.isdigit() else 0


def _one(row: Any) -> int:
    """Row count of a single-row lookup (``None`` when nothing matched)."""
    return 0 if row is None else 1


class HistoryStore:
    """Abstract storage backend: instance rows, the forward dependency
    index and content-addressed blobs with their aliases.

    Implementations must preserve insertion order for
    :meth:`iter_instances` / :meth:`ids_of_type` and maintain the
    forward (antecedent -> consumers) index on every :meth:`add`.
    """

    #: Backend name as selected by persistence (``json``/``sqlite``).
    kind: str = BACKEND_JSON
    #: Optional query-observability hook (duck-typed to
    #: :class:`~repro.obs.profiling.QueryRecorder` — this module never
    #: imports obs).  ``None`` keeps every read on the untimed fast
    #: path.
    _recorder = None

    def set_query_recorder(self, recorder) -> None:
        """Route per-statement timings into ``recorder`` (None stops)."""
        self._recorder = recorder

    def _timed(self, statement: str, read: Callable[[], Any],
               rows: Callable[[Any], int] = len) -> Any:
        """Run one store statement, timed under its fingerprint when a
        recorder is attached; ``rows(result)`` is its row count."""
        recorder = self._recorder
        if recorder is None:
            return read()
        with recorder.timed(statement) as cell:
            result = read()
            cell[0] = rows(result)
        return result

    # -- instance rows -------------------------------------------------
    def add(self, instance: EntityInstance) -> None:
        raise NotImplementedError

    def replace(self, instance: EntityInstance) -> None:
        """Swap an instance's meta-data; the derivation is immutable."""
        raise NotImplementedError

    def get(self, instance_id: str) -> EntityInstance | None:
        raise NotImplementedError

    def __contains__(self, instance_id: str) -> bool:
        return self.get(instance_id) is not None

    def __len__(self) -> int:
        raise NotImplementedError

    def iter_instances(self) -> Iterator[EntityInstance]:
        raise NotImplementedError

    def ids_of_type(self, entity_type: str) -> tuple[str, ...]:
        """Instance ids of one *concrete* type (no subtype expansion)."""
        raise NotImplementedError

    def consumers_of(self, instance_id: str) -> tuple[str, ...]:
        """Forward index: instances whose derivation uses this one."""
        raise NotImplementedError

    # -- id allocation support ---------------------------------------------
    def highest_serial(self, entity_type: str) -> int:
        """Largest numeric id suffix seen for a type (0 when none)."""
        raise NotImplementedError

    def highest_invocation(self) -> int:
        """Largest numeric invocation suffix seen (0 when none)."""
        raise NotImplementedError

    # -- content-addressed blobs -------------------------------------------
    def put_blob(self, digest: str, canonical: str, size: int) -> None:
        """Store a blob's canonical JSON text (a no-op when present)."""
        raise NotImplementedError

    def get_blob(self, digest: str) -> str | None:
        """Canonical JSON text of a blob (None when absent)."""
        raise NotImplementedError

    def blob_size(self, digest: str) -> int | None:
        raise NotImplementedError

    def blob_refs(self) -> tuple[str, ...]:
        """Every blob digest, sorted."""
        raise NotImplementedError

    def put_blob_alias(self, alias: str, digest: str) -> None:
        """Map a short or legacy ref to a digest (first mapping wins)."""
        raise NotImplementedError

    def resolve_blob_alias(self, alias: str) -> str | None:
        raise NotImplementedError

    def blob_aliases(self) -> tuple[tuple[str, str], ...]:
        """Every ``(alias, digest)`` pair, sorted by alias."""
        raise NotImplementedError

    # -- lifecycle -------------------------------------------------------
    def flush(self) -> None:
        """Make writes durable (commit); a no-op for in-memory stores."""

    def close(self) -> None:
        """Release any file handles; the store is unusable afterwards."""


class InMemoryHistoryStore(HistoryStore):
    """Dictionary-backed store: the JSON backend's working set.

    Insertion-ordered dicts hold the rows and the type and forward
    indexes, extended on every write, next to the serial maxima for id
    allocation and the blob and alias tables the SQLite store keeps on
    disk.  Reads report under ``MEM ...`` pseudo-statements, so both
    backends share one fingerprint scheme.
    """

    kind = BACKEND_JSON

    def __init__(self) -> None:
        self._instances: dict[str, EntityInstance] = {}
        self._by_type: dict[str, list[str]] = {}
        self._forward: dict[str, list[str]] = {}
        self._serial_max: dict[str, int] = {}
        self._invocation_max = 0
        self._blobs: dict[str, str] = {}
        self._blob_sizes: dict[str, int] = {}
        self._aliases: dict[str, str] = {}

    # -- instance rows -------------------------------------------------
    def add(self, instance: EntityInstance) -> None:
        self._instances[instance.instance_id] = instance
        self._by_type.setdefault(instance.entity_type, []).append(
            instance.instance_id)
        entity_type, serial = parse_serial(instance.instance_id)
        if serial > self._serial_max.get(entity_type, 0):
            self._serial_max[entity_type] = serial
        derivation = instance.derivation
        if derivation is not None:
            for antecedent in derivation.all_antecedents():
                self._forward.setdefault(antecedent, []).append(
                    instance.instance_id)
            run = parse_invocation(derivation.invocation)
            self._invocation_max = max(self._invocation_max, run)

    def replace(self, instance: EntityInstance) -> None:
        self._instances[instance.instance_id] = instance

    def get(self, instance_id: str) -> EntityInstance | None:
        return self._instances.get(instance_id)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._instances

    def __len__(self) -> int:
        return len(self._instances)

    def iter_instances(self) -> Iterator[EntityInstance]:
        # The materialization IS the scan: every history-wide walk
        # (staleness sweeps, ``repro history``) lands here, so the JSON
        # backend's full-scan cost shows up next to SQLite's statements
        # under one fingerprint scheme.
        return iter(self._timed("MEM SCAN instances",
                                lambda: tuple(self._instances.values())))

    def ids_of_type(self, entity_type: str) -> tuple[str, ...]:
        return self._timed(
            "MEM SELECT instances BY entity_type",
            lambda: tuple(self._by_type.get(entity_type, ())))

    def consumers_of(self, instance_id: str) -> tuple[str, ...]:
        return self._timed(
            "MEM SELECT consumers BY antecedent",
            lambda: tuple(self._forward.get(instance_id, ())))

    # -- id allocation support ---------------------------------------------
    def highest_serial(self, entity_type: str) -> int:
        return self._serial_max.get(entity_type, 0)

    def highest_invocation(self) -> int:
        return self._invocation_max

    # -- content-addressed blobs -------------------------------------------
    def put_blob(self, digest: str, canonical: str, size: int) -> None:
        self._blobs.setdefault(digest, canonical)
        self._blob_sizes.setdefault(digest, size)

    def get_blob(self, digest: str) -> str | None:
        return self._timed("MEM SELECT canonical FROM blobs BY digest",
                           lambda: self._blobs.get(digest), _one)

    def blob_size(self, digest: str) -> int | None:
        return self._timed("MEM SELECT size FROM blobs BY digest",
                           lambda: self._blob_sizes.get(digest), _one)

    def blob_refs(self) -> tuple[str, ...]:
        return self._timed("MEM SCAN blobs",
                           lambda: tuple(sorted(self._blobs)))

    def put_blob_alias(self, alias: str, digest: str) -> None:
        self._aliases.setdefault(alias, digest)

    def resolve_blob_alias(self, alias: str) -> str | None:
        return self._timed("MEM SELECT digest FROM blob_aliases BY alias",
                           lambda: self._aliases.get(alias), _one)

    def blob_aliases(self) -> tuple[tuple[str, str], ...]:
        return self._timed("MEM SCAN blob_aliases",
                           lambda: tuple(sorted(self._aliases.items())))
