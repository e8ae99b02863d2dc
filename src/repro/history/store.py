"""Pluggable storage backends for the design history database.

The paper's history database answers three query families — backward
chaining, forward chaining and staleness scans — all of which reduce to
edge lookups over the instance-derivation DAG.  Following the dask
scheduler idiom, a :class:`HistoryStore` keeps **redundant** forward and
reverse dependency indexes so both directions are constant-time,
maintained incrementally inside the write path rather than recomputed
by whole-history scans.

Two implementations exist:

* :class:`InMemoryHistoryStore` — plain dictionaries, the compatibility
  default behind the JSON persistence format (``history.json``);
* :class:`~repro.history.sqlite_store.SqliteHistoryStore` — an indexed
  SQLite-WAL file with persistent dependency indexes and
  content-addressed blob storage, so opening a million-instance history
  costs the rows a query touches, not a full parse.

The re-execution cache keeps its key index in the shared memo
(:mod:`repro.execution.shared_memo`), not in a store.

:class:`~repro.history.database.HistoryDatabase` routes every read and
write through this interface; the query layers on top
(:mod:`repro.history.trace`, :mod:`repro.history.consistency`,
:mod:`repro.history.query`) stay backend-agnostic.
"""

from __future__ import annotations

from typing import Iterator

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


class HistoryStore:
    """Abstract storage backend: instance rows plus dependency indexes.

    Implementations must preserve insertion order for
    :meth:`iter_instances` / :meth:`ids_of_type` and maintain the
    forward (antecedent -> consumers) and reverse (consumer ->
    antecedents) dependency indexes on every :meth:`add`.
    """

    #: Backend name as selected by persistence (``json``/``sqlite``).
    kind: str = BACKEND_JSON
    #: True when the store also persists content-addressed blobs (the
    #: :class:`~repro.history.datastore.DataStore` then writes through).
    blob_backend: bool = False
    #: Optional query-observability hook (duck-typed to
    #: :class:`~repro.obs.profiling.QueryRecorder` — this module never
    #: imports obs).  ``None`` keeps every read on the untimed fast
    #: path.
    _recorder = None

    def set_query_recorder(self, recorder) -> None:
        """Route per-statement timings into ``recorder`` (None stops)."""
        self._recorder = recorder

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

    # -- dependency indexes ----------------------------------------------
    def consumers_of(self, instance_id: str) -> tuple[str, ...]:
        """Forward index: instances whose derivation uses this one."""
        raise NotImplementedError

    def antecedents_of(self, instance_id: str) -> tuple[str, ...]:
        """Reverse index: instances this one's derivation uses."""
        raise NotImplementedError

    def ids_for_invocation(self, invocation: str) -> tuple[str, ...]:
        """Sibling outputs recorded under one task invocation."""
        raise NotImplementedError

    # -- id allocation support ---------------------------------------------
    def highest_serial(self, entity_type: str) -> int:
        """Largest numeric id suffix seen for a type (0 when none)."""
        raise NotImplementedError

    def highest_invocation(self) -> int:
        """Largest numeric invocation suffix seen (0 when none)."""
        raise NotImplementedError

    # -- content-addressed blobs (optional) ---------------------------------
    def put_blob(self, digest: str, canonical: str, size: int) -> None:
        raise NotImplementedError

    def get_blob(self, digest: str) -> str | None:
        """Canonical JSON text of a blob (None when absent)."""
        raise NotImplementedError

    def blob_size(self, digest: str) -> int | None:
        raise NotImplementedError

    def blob_refs(self) -> tuple[str, ...]:
        raise NotImplementedError

    def put_blob_alias(self, alias: str, digest: str) -> None:
        raise NotImplementedError

    def resolve_blob_alias(self, alias: str) -> str | None:
        raise NotImplementedError

    # -- lifecycle -------------------------------------------------------
    def flush(self) -> None:
        """Make writes durable (commit); a no-op for in-memory stores."""

    def close(self) -> None:
        """Release any file handles; the store is unusable afterwards."""


class InMemoryHistoryStore(HistoryStore):
    """Dictionary-backed store: the JSON backend's working set.

    Matches the pre-interface behaviour of
    :class:`~repro.history.database.HistoryDatabase` exactly — plain
    dicts, insertion-ordered, with the forward index maintained on every
    write — plus the reverse/invocation indexes and serial maxima the
    interface standardizes.
    """

    kind = BACKEND_JSON

    def __init__(self) -> None:
        self._instances: dict[str, EntityInstance] = {}
        self._by_type: dict[str, list[str]] = {}
        self._forward: dict[str, list[str]] = {}
        self._by_invocation: dict[str, list[str]] = {}
        self._serial_max: dict[str, int] = {}
        self._invocation_max = 0

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
            if derivation.invocation:
                self._by_invocation.setdefault(
                    derivation.invocation, []).append(instance.instance_id)
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
        recorder = self._recorder
        if recorder is None:
            return iter(tuple(self._instances.values()))
        # The materialization IS the scan: every history-wide walk
        # (staleness sweeps, ``repro history``) lands here, so the JSON
        # backend's full-scan cost shows up next to SQLite's statements
        # under one fingerprint scheme.
        with recorder.timed("MEM SCAN instances") as cell:
            rows = tuple(self._instances.values())
            cell[0] = len(rows)
        return iter(rows)

    def ids_of_type(self, entity_type: str) -> tuple[str, ...]:
        recorder = self._recorder
        if recorder is None:
            return tuple(self._by_type.get(entity_type, ()))
        with recorder.timed(
                "MEM SELECT instances BY entity_type") as cell:
            rows = tuple(self._by_type.get(entity_type, ()))
            cell[0] = len(rows)
        return rows

    # -- dependency indexes ----------------------------------------------
    def consumers_of(self, instance_id: str) -> tuple[str, ...]:
        recorder = self._recorder
        if recorder is None:
            return tuple(self._forward.get(instance_id, ()))
        with recorder.timed(
                "MEM SELECT consumers BY antecedent") as cell:
            rows = tuple(self._forward.get(instance_id, ()))
            cell[0] = len(rows)
        return rows

    def antecedents_of(self, instance_id: str) -> tuple[str, ...]:
        instance = self._instances.get(instance_id)
        if instance is None or instance.derivation is None:
            return ()
        return instance.derivation.all_antecedents()

    def ids_for_invocation(self, invocation: str) -> tuple[str, ...]:
        return tuple(self._by_invocation.get(invocation, ()))

    # -- id allocation support ---------------------------------------------
    def highest_serial(self, entity_type: str) -> int:
        return self._serial_max.get(entity_type, 0)

    def highest_invocation(self) -> int:
        return self._invocation_max
