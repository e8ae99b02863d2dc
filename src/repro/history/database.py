"""The design history database.

Section 3.3: *"the task schema aids design data management by forming the
data schema for a design meta-data (design history) database"*.  The
database stores :class:`~repro.history.instance.EntityInstance` records
(meta-data) and, through a :class:`~repro.history.datastore.DataStore`,
their physical data in one :class:`~repro.history.store.HistoryStore`,
whose forward index makes forward-chaining queries (section 4.2) cheap.

Because *all design objects are created through the execution of flows*,
the two write paths are:

* :meth:`HistoryDatabase.install` — data/tools entering from outside any
  flow (source entities: stimuli, installed tools, imported libraries);
* :meth:`HistoryDatabase.record` — objects produced by a task invocation,
  always with a :class:`~repro.history.instance.DerivationRecord`.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import time
from typing import Any, Callable, Iterable

from ..errors import HistoryError, UnknownInstanceError
from ..obs import INSTANCE_CREATED, NO_OP_BUS, EventBus, SpanContext
from ..schema.schema import TaskSchema
from .datastore import SHORT_REF_LENGTH, CodecRegistry, DataStore
from .instance import DerivationRecord, EntityInstance
from .store import HistoryStore, InMemoryHistoryStore


class BrowseFilter:
    """Filters of the Fig. 9 instance browser.

    Keywords match case-insensitively against name, comment and
    annotation values; date limits bound the creation time-stamp; the
    user limit matches the creating user exactly.
    """

    def __init__(self, *, keywords: Iterable[str] = (),
                 since: float | None = None, until: float | None = None,
                 user: str | None = None) -> None:
        self.keywords = tuple(k.lower() for k in keywords)
        self.since = since
        self.until = until
        self.user = user

    def matches(self, instance: EntityInstance) -> bool:
        if self.user is not None and instance.user != self.user:
            return False
        if self.since is not None and instance.timestamp < self.since:
            return False
        if self.until is not None and instance.timestamp > self.until:
            return False
        if self.keywords:
            haystack = " ".join(
                [instance.name, instance.comment, instance.instance_id]
                + [v for _, v in instance.annotations]).lower()
            if not all(keyword in haystack for keyword in self.keywords):
                return False
        return True


class HistoryDatabase:
    """Instance meta-data store, dependency indexes and persistence.

    All reads and writes route through a
    :class:`~repro.history.store.HistoryStore` backend — dictionaries
    for the compatibility JSON format, or the indexed SQLite-WAL store
    (:class:`~repro.history.sqlite_store.SqliteHistoryStore`) — so the
    chaining/staleness query layers stay backend-agnostic while edge
    lookups stay constant-time at any history size.  The default
    :class:`~repro.history.datastore.DataStore` keeps its blobs in the
    same store.
    """

    def __init__(self, schema: TaskSchema, *,
                 datastore: DataStore | None = None,
                 codecs: CodecRegistry | None = None,
                 clock: Callable[[], float] | None = None,
                 bus: EventBus | None = None,
                 store: HistoryStore | None = None) -> None:
        self.schema = schema
        self.store = store if store is not None else InMemoryHistoryStore()
        self.datastore = (datastore if datastore is not None
                          else DataStore(codecs, backend=self.store))
        self.bus = bus if bus is not None else NO_OP_BUS
        self._clock = clock if clock is not None else time.time
        # id counters are seeded lazily from the store's maxima, so a
        # reopened (possibly huge) history never needs a warm-up scan
        self._type_counters: dict[str, itertools.count] = {}
        self._invocation_counter: itertools.count | None = None

    @property
    def backend(self) -> str:
        """Name of the storage backend (``json``/``sqlite``)."""
        return self.store.kind

    # ------------------------------------------------------------------
    # identifier & invocation allocation
    # ------------------------------------------------------------------
    def _new_id(self, entity_type: str) -> str:
        counter = self._type_counters.get(entity_type)
        if counter is None:
            counter = itertools.count(
                self.store.highest_serial(entity_type) + 1)
            self._type_counters[entity_type] = counter
        return f"{entity_type}#{next(counter):04d}"

    def new_invocation_id(self) -> str:
        """Fresh identifier grouping sibling outputs of one task run.

        The counter resumes past the highest invocation on record:
        reused invocation ids would merge unrelated runs into fake
        multi-output sibling groups (breaking derivation grouping).
        """
        if self._invocation_counter is None:
            self._invocation_counter = itertools.count(
                self.store.highest_invocation() + 1)
        return f"run#{next(self._invocation_counter):05d}"

    # ------------------------------------------------------------------
    # write paths
    # ------------------------------------------------------------------
    def install(self, entity_type: str, data: Any, *, user: str = "",
                name: str = "", comment: str = "",
                annotations: dict[str, str] | None = None
                ) -> EntityInstance:
        """Register data or a tool entering the design from outside."""
        return self._add(entity_type, data, None, user=user, name=name,
                         comment=comment, annotations=annotations)

    def record(self, entity_type: str, data: Any,
               derivation: DerivationRecord, *, user: str = "",
               name: str = "", comment: str = "",
               annotations: dict[str, str] | None = None,
               trace: SpanContext | None = None) -> EntityInstance:
        """Register an object produced by a task invocation.

        ``trace`` carries the producing span's identity when the run is
        traced; the ids are stamped into the instance so provenance and
        timing stay joinable (``repro history`` prints the span).
        """
        if derivation is None:
            raise HistoryError("record() requires a derivation; use "
                               "install() for external data")
        self._check_derivation(entity_type, derivation)
        return self._add(entity_type, data, derivation, user=user,
                         name=name, comment=comment,
                         annotations=annotations, trace=trace)

    def _check_derivation(self, entity_type: str,
                          derivation: DerivationRecord) -> None:
        for antecedent in derivation.all_antecedents():
            if antecedent not in self.store:
                raise UnknownInstanceError(antecedent)
        construction = self.schema.construction(entity_type)
        if construction is None:
            raise HistoryError(
                f"{entity_type!r} has no construction method; a derived "
                "instance of it cannot exist")
        if construction.tool is None:
            if derivation.tool is not None:
                raise HistoryError(
                    f"composed entity {entity_type!r} must not record a "
                    "tool in its derivation")
        else:
            if derivation.tool is None:
                raise HistoryError(
                    f"{entity_type!r} requires tool "
                    f"{construction.tool!r} in its derivation")
            tool_instance = self.get(derivation.tool)
            if not self.schema.is_subtype(tool_instance.entity_type,
                                          construction.tool):
                raise HistoryError(
                    f"{entity_type!r} derivation names tool "
                    f"{tool_instance.entity_type!r}, schema requires "
                    f"{construction.tool!r}")
        valid_roles = {d.role: d for d in construction.inputs}
        for role, input_id in derivation.inputs:
            if role not in valid_roles:
                raise HistoryError(
                    f"{entity_type!r} derivation uses unknown input role "
                    f"{role!r}")
            input_instance = self.get(input_id)
            if not self.schema.is_subtype(input_instance.entity_type,
                                          valid_roles[role].target):
                raise HistoryError(
                    f"{entity_type!r} role {role!r} expects "
                    f"{valid_roles[role].target!r}, got "
                    f"{input_instance.entity_type!r}")

    def _add(self, entity_type: str, data: Any,
             derivation: DerivationRecord | None, *, user: str, name: str,
             comment: str, annotations: dict[str, str] | None,
             trace: SpanContext | None = None) -> EntityInstance:
        self.schema.entity(entity_type)  # raises if unknown
        data_ref = None if data is None else self.datastore.put(data)
        instance = EntityInstance(
            instance_id=self._new_id(entity_type),
            entity_type=entity_type,
            user=user,
            timestamp=self._clock(),
            name=name,
            comment=comment,
            data_ref=data_ref,
            derivation=derivation,
            annotations=tuple(sorted((annotations or {}).items())),
            trace_id=trace.trace_id if trace is not None else "",
            span_id=trace.span_id if trace is not None else "",
        )
        self._index(instance)
        if self.bus.enabled:
            payload = {"entity_type": entity_type,
                       "instance_id": instance.instance_id,
                       "installed": derivation is None}
            if trace is not None:
                payload["trace_id"] = trace.trace_id
                payload["span_id"] = trace.span_id
            self.bus.emit(
                INSTANCE_CREATED,
                flow=(annotations or {}).get("flow", ""),
                invocation_id=(derivation.invocation
                               if derivation is not None else ""),
                machine=(annotations or {}).get("machine", ""),
                payload=payload)
        return instance

    def _index(self, instance: EntityInstance) -> None:
        # the store maintains the type and forward dependency indexes
        # incrementally inside its write path
        self.store.add(instance)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, instance_id: str) -> EntityInstance:
        instance = self.store.get(instance_id)
        if instance is None:
            raise UnknownInstanceError(instance_id)
        return instance

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self.store

    def __len__(self) -> int:
        return len(self.store)

    def data(self, instance: EntityInstance | str) -> Any:
        """Fetch the physical data behind an instance (or id)."""
        if isinstance(instance, str):
            instance = self.get(instance)
        if instance.data_ref is None:
            return None
        return self.datastore.get(instance.data_ref)

    def instances(self) -> tuple[EntityInstance, ...]:
        return tuple(self.store.iter_instances())

    def iter_instances(self) -> Iterable[EntityInstance]:
        """Stream instances in insertion order without materializing."""
        return self.store.iter_instances()

    def browse(self, entity_type: str | None = None, *,
               include_subtypes: bool = True,
               filters: BrowseFilter | None = None
               ) -> tuple[EntityInstance, ...]:
        """List instances, newest last (as the Fig. 9 browser does)."""
        if entity_type is None:
            selected = list(self.store.iter_instances())
        else:
            self.schema.entity(entity_type)
            types = [entity_type]
            if include_subtypes:
                types.extend(self.schema.descendants_of(entity_type))
            candidates = itertools.chain.from_iterable(
                self.store.ids_of_type(t) for t in types)
            selected = [self.get(i) for i in candidates]
        if filters is not None:
            selected = [i for i in selected if filters.matches(i)]
        selected.sort(key=lambda i: (i.timestamp, i.instance_id))
        return tuple(selected)

    def latest(self, entity_type: str, *,
               include_subtypes: bool = True) -> EntityInstance:
        """Most recently created instance of a type."""
        found = self.browse(entity_type, include_subtypes=include_subtypes)
        if not found:
            raise HistoryError(f"no instances of {entity_type!r}")
        return found[-1]

    def consumers_of(self, instance_id: str) -> tuple[str, ...]:
        """Instances whose derivation directly uses the given instance."""
        self.get(instance_id)
        return self.store.consumers_of(instance_id)

    def antecedents_of(self, instance_id: str) -> tuple[str, ...]:
        """Instances the given instance's derivation directly uses.

        The derivation record is the reverse index: no store keeps
        another copy of it.
        """
        derivation = self.get(instance_id).derivation
        return () if derivation is None else derivation.all_antecedents()

    def update_metadata(self, instance_id: str, *,
                        name: str | None = None,
                        comment: str | None = None,
                        annotations: dict[str, str] | None = None
                        ) -> EntityInstance:
        """Annotate an instance (the browser's Comment/Edit operation).

        Derivation meta-data is immutable; only the human-facing fields
        may change.
        """
        instance = self.get(instance_id)
        if name is not None:
            instance = instance.renamed(name)
        if comment is not None:
            instance = instance.renamed(instance.name, comment)
        if annotations:
            instance = instance.annotated(**annotations)
        self.store.replace(instance)
        return instance

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        payload = {
            "schema": self.schema.name,
            "instances": [i.to_dict()
                          for i in self.store.iter_instances()],
            "blobs": self.datastore.to_dict(),
        }
        # load_dict re-derives each digest's prefix alias; any other
        # legacy ref must be saved or its instances lose their data
        aliases = {alias: digest for alias, digest
                   in self.datastore.backend.blob_aliases()
                   if alias != digest[:SHORT_REF_LENGTH]}
        if aliases:
            payload["aliases"] = aliases
        return payload

    def save(self, path: str | pathlib.Path) -> None:
        write_history_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, schema: TaskSchema, payload: dict[str, Any], *,
                  codecs: CodecRegistry | None = None,
                  clock: Callable[[], float] | None = None,
                  bus: EventBus | None = None,
                  store: HistoryStore | None = None) -> "HistoryDatabase":
        db = cls(schema, codecs=codecs, clock=clock, bus=bus, store=store)
        db.datastore.load_dict(payload.get("blobs", {}))
        for alias, digest in payload.get("aliases", {}).items():
            db.datastore.backend.put_blob_alias(alias, digest)
        for spec in payload.get("instances", ()):
            db._index(EntityInstance.from_dict(spec))
        # id/invocation counters seed themselves lazily from the
        # store's maxima, so nothing to recompute here
        return db

    @classmethod
    def load(cls, schema: TaskSchema, path: str, *,
             codecs: CodecRegistry | None = None) -> "HistoryDatabase":
        return cls.from_dict(schema, read_history_json(path),
                             codecs=codecs)

    def converted(self, store: HistoryStore, *,
                  codecs: CodecRegistry | None = None
                  ) -> "HistoryDatabase":
        """Copy this history verbatim into a different storage backend.

        Instance ids, derivation records, timestamps, data refs, blob
        text and legacy blob aliases are copied through the store
        interface, without decoding a blob, so both copies answer every
        derivation query identically (`repro migrate` relies on this).
        """
        db = HistoryDatabase(self.schema, codecs=codecs,
                             clock=self._clock, bus=self.bus, store=store)
        blobs = self.datastore.backend
        for digest in blobs.blob_refs():
            store.put_blob(digest, blobs.get_blob(digest),
                           blobs.blob_size(digest))
        for alias, digest in blobs.blob_aliases():
            store.put_blob_alias(alias, digest)
        for instance in self.store.iter_instances():
            if instance.instance_id not in db.store:
                db.store.add(instance)
        db.store.flush()
        return db

    def __repr__(self) -> str:
        return (f"HistoryDatabase({self.schema.name!r}, "
                f"{len(self.store)} instances, "
                f"backend={self.store.kind!r})")


def read_history_json(path: str) -> Any:
    """Parse a saved environment's JSON file with a diagnosable
    failure mode.

    A truncated or corrupted file (killed writer, partial copy) names
    the offending path and byte offset instead of surfacing an opaque
    ``JSONDecodeError`` with no context.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        offset = len(text[:error.pos].encode("utf-8"))
        total = len(text.encode("utf-8"))
        raise HistoryError(
            f"corrupt {path}: {error.msg} at byte offset "
            f"{offset} (of {total} bytes); the file is truncated or "
            "was written by an interrupted save") from error


def write_history_json(path: str | pathlib.Path, payload: Any) -> bool:
    """Write one of a saved environment's JSON files; return whether
    the file changed.

    The text is compact and key-sorted, so CPython's C encoder makes
    it, and it is written only when the file does not already hold
    exactly these bytes: a save rewrites just what changed.
    :func:`read_history_json` reads these files and the indented ones
    older builds wrote alike.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    target = pathlib.Path(path)
    try:
        # json escapes every non-ASCII character: one byte per character
        if (
            target.stat().st_size == len(text)
            and target.read_bytes() == text.encode("ascii")
        ):
            return False
    except FileNotFoundError:
        pass
    target.write_text(text, encoding="utf-8")
    return True
