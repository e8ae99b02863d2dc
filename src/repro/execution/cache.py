"""Derivation-keyed incremental re-execution cache.

Every design object already carries a :class:`DerivationRecord` (the
immediate tool and data inputs that created it — paper section 1) and
the datastore is content-addressed, so the ingredients of Make/Dask
style memoization are free: a *derivation key* — tool type, tool data
content, encapsulation fingerprint, canonical content digests of every
bound input and the output-type signature — uniquely identifies one
tool run.  The :class:`DerivationCache` maintains a key -> instance-ids
index over a :class:`~repro.history.database.HistoryDatabase`; an
executor that is about to run a tool asks the cache first, and on a hit
reuses the recorded instances instead of calling the tool again.

Only the run that executed a tool computes its key, under the
``readwrite`` policy (:meth:`DerivationCache.store`).  The index is held
in memory and, for saved environments, in the shared memo
(:mod:`repro.execution.shared_memo`), its only saved copy, which each
run writes once, when it ends (:meth:`DerivationCache.publish`).  A
cache's first lookup indexes the memo from its last line back, only
until the asked key has a run to try, so a hit costs the same however
many runs the memo records.

:meth:`DerivationCache.fetch` alone decides whether a remembered run may
be reused.  It takes a group of remembered instances only when they
re-derive the lookup key from their own derivation records under the
current code, and when every one of them is still up to date
(:func:`repro.history.consistency.all_up_to_date`), so version-wise
staleness — an edited input anywhere upstream — silently degrades to a
miss and a fresh run, exactly the paper's consistency-maintenance rules
applied in reverse.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..errors import ExecutionError, ReproError, UnknownInstanceError
from ..history.consistency import all_up_to_date
from ..history.database import HistoryDatabase
from ..history.instance import EntityInstance
from .encapsulation import EncapsulationRegistry, fingerprint_callable
from .shared_memo import (Group, MemoEntry, Scanned, SharedDerivationMemo,
                          decode_outputs, index_form, scan, scan_back)

# -- cache policies ----------------------------------------------------------
CACHE_OFF = "off"            #: no lookups, no indexing of this run
CACHE_REUSE = "reuse"        #: reuse hits; do not index this run's results
CACHE_READWRITE = "readwrite"  #: reuse hits and index fresh results

CACHE_POLICIES = (CACHE_OFF, CACHE_REUSE, CACHE_READWRITE)


def normalize_policy(policy: str | None) -> str:
    """Validate a ``cache=`` policy value (``None`` means off)."""
    if policy is None:
        return CACHE_OFF
    if policy not in CACHE_POLICIES:
        raise ExecutionError(
            f"unknown cache policy {policy!r}; choose from "
            f"{', '.join(CACHE_POLICIES)}")
    return policy


@dataclass(frozen=True)
class CacheHit:
    """One remembered tool run the executor may coalesce.

    ``outputs`` preserves the recording order of ``(entity_type,
    instance_id)`` pairs, so multi-output invocations (Fig. 5) can map
    each reused instance back onto the right flow node.  ``saved`` is
    the duration the run's newest record carries: the time this very
    run took.
    """

    key: str
    outputs: tuple[tuple[str, str], ...]
    saved: float
    bytes_saved: int

    @property
    def instance_ids(self) -> tuple[str, ...]:
        return tuple(instance_id for _, instance_id in self.outputs)

    def ids_by_type(self) -> dict[str, list[str]]:
        grouped: dict[str, list[str]] = {}
        for entity_type, instance_id in self.outputs:
            grouped.setdefault(entity_type, []).append(instance_id)
        return grouped


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache (process lifetime)."""

    hits: int = 0
    misses: int = 0
    bytes_saved: int = 0
    time_saved: float = 0.0
    invalidated: int = 0

    def render(self) -> str:
        total = self.hits + self.misses
        rate = (100.0 * self.hits / total) if total else 0.0
        return (f"derivation cache: {self.hits} hits, "
                f"{self.misses} misses ({rate:.0f}% hit rate), "
                f"{self.bytes_saved} bytes saved, "
                f"{self.time_saved * 1e3:.2f}ms saved, "
                f"{self.invalidated} stale entries skipped")


#: (outputs JSON in the memo writer's form, duration) of one record
_Record = tuple[bytes, float]


@dataclass
class _Entry:
    """The distinct runs remembered for one derivation key.

    Each maps a member key (:func:`~.shared_memo.index_form`) to the
    run's newest record.
    """

    #: runs stored or read forward, oldest first
    newer: dict[bytes, _Record] = field(default_factory=dict)
    #: runs indexed walking the memo back, newest first; each is older
    #: than every run in ``newer``
    older: dict[bytes, _Record] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.newer) + len(self.older)

    def newest_first(self) -> list[_Record]:
        return [*reversed(self.newer.values()), *self.older.values()]


def _input_ids(ref: Any) -> Sequence[str]:
    """The input ids one role of a combo binds: one id (fan-out mode)
    or a list of them (batch mode)."""
    return ref if isinstance(ref, (list, tuple)) else (ref,)


class DerivationCache:
    """Key -> instance-ids index enabling incremental re-execution."""

    def __init__(self, db: HistoryDatabase,
                 registry: EncapsulationRegistry) -> None:
        self.db = db
        self.registry = registry
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._entries: dict[str, _Entry] = {}
        #: entries of the memo lines read but not yet indexed, newest
        #: first (:func:`~.shared_memo.scan_back`)
        self._unindexed: Iterator[Scanned] = iter(())
        self.memo: SharedDerivationMemo | None = None
        #: memo lines of the runs stored since the last publish
        self._unpublished: list[MemoEntry] = []

    def attach_shared_memo(
            self, path: str | pathlib.Path) -> SharedDerivationMemo:
        """Keep the index in the shared memo at ``path``.

        Runs this cache remembers but that memo may not (an index built
        in memory, or absorbed from another directory's memo) are
        appended to it first, in one batch: each run once, as its newest
        record, keys in sorted order and a key's runs oldest first.
        From then on every :meth:`publish` appends the runs stored since
        the last one, and entries other processes append are absorbed on
        every lookup and :meth:`sync` — concurrent runs (and procpool
        coordinators of concurrent runs) observe each other's hits.
        """
        path = pathlib.Path(path)
        with self._lock:
            if self.memo is not None:
                # equal paths are one memo without resolving either
                old = self.memo.path
                if old == path or old.resolve() == path.resolve():
                    return self.memo
            # queued lines go to the old memo; the carry-over below
            # writes them to the new one, so a later publish must not
            self.publish()
            self._index_back()
            memo = SharedDerivationMemo(path)
            carried = [(key, decode_outputs(outputs), duration)
                       for key in sorted(self._entries)
                       for outputs, duration
                       in reversed(self._entries[key].newest_first())]
            if carried:
                memo.append(carried)
            self.memo = memo
            return memo

    # ------------------------------------------------------------------
    # derivation keys
    # ------------------------------------------------------------------
    def _data_digest(self, instance_id: str) -> str:
        instance = self.db.get(instance_id)
        if instance.data_ref is None:
            return ""
        # legacy short refs resolve to full-length digests, so keys
        # never inherit the old truncation collisions
        return self.db.datastore.resolve(instance.data_ref)

    def tool_run_key(self, tool_id: str,
                     combo: Mapping[str, Any],
                     output_types: Iterable[str]) -> str:
        """Derivation key for one tool call.

        ``combo`` maps role names to an input instance id (fan-out mode)
        or a list of them (batch mode).
        """
        tool = self.db.get(tool_id)
        encapsulation = self.registry.resolve(tool.entity_type, tool_id)
        return self._key(
            kind="tool",
            tool_type=tool.entity_type,
            tool_digest=self._data_digest(tool_id),
            code=encapsulation.fingerprint(),
            combo=combo,
            output_types=output_types)

    def composition_key(self, entity_type: str,
                        combo: Mapping[str, Any]) -> str:
        """Derivation key for one implicit-composition run."""
        compose = self.registry.composition(entity_type)
        return self._key(
            kind="compose",
            tool_type=entity_type,
            tool_digest="",
            code=fingerprint_callable(compose),
            combo=combo,
            output_types=(entity_type,))

    def _key(self, *, kind: str, tool_type: str, tool_digest: str,
             code: str, combo: Mapping[str, Any],
             output_types: Iterable[str]) -> str:
        inputs = []
        for role in sorted(combo):
            ids = _input_ids(combo[role])
            inputs.append(
                [role, sorted(self._data_digest(i) for i in ids)])
        spec = json.dumps(
            {"kind": kind, "tool": tool_type, "tool_data": tool_digest,
             "code": code, "inputs": inputs,
             "outputs": sorted(output_types)},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(spec.encode("utf-8")).hexdigest()

    def _members(self, ids: list[str]) -> list[EntityInstance] | None:
        """The instances ``ids``, or None if this history lacks one."""
        try:
            return [self.db.get(instance_id) for instance_id in ids]
        except UnknownInstanceError:
            return None

    def _derives(self, key: str, members: list[EntityInstance],
                 source: tuple[Any, ...]) -> bool:
        """Whether ``members`` are one run that ``key`` names.

        The key is re-derived from the instances' own derivation record
        (tool instance and input contents) under the current code, so a
        memo line naming ids that this history recorded for another run
        does not match.  A record that names ``source`` — the lookup's
        own tool instance, output types and input ids per role — derives
        ``key`` by construction and is not re-keyed.
        """
        derivation = members[0].derivation
        if derivation is None or any(member.derivation != derivation
                                     for member in members):
            return False
        combo: dict[str, list[str]] = {}
        for role, input_id in derivation.inputs:
            combo.setdefault(role, []).append(input_id)
        types = sorted({member.entity_type for member in members})
        if source == (derivation.tool, types,
                      {role: sorted(ids) for role, ids in combo.items()}):
            return True
        try:
            if derivation.tool is None:
                derived = self.composition_key(members[0].entity_type,
                                               combo)
            else:
                derived = self.tool_run_key(derivation.tool, combo, types)
        except ReproError:
            return False  # no longer derivable (code unregistered, ...)
        return derived == key

    # ------------------------------------------------------------------
    # index maintenance
    # ------------------------------------------------------------------
    def _remember(self, key: str, run: Group | bytes,
                  duration: float) -> None:
        """Index one record under ``key`` as its newest: a run's pairs,
        or the outputs JSON of a memo line in the writer's form.  A run
        the key already holds moves to this record."""
        members, outputs = index_form(run)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _Entry()
        entry.older.pop(members, None)
        entry.newer.pop(members, None)
        entry.newer[members] = (outputs, duration)

    def _index_back(self, key: str | None = None, count: int = 0) -> None:
        """Index the memo lines read but not yet indexed, newest first,
        until ``key`` holds ``count`` runs; with no key, every one.

        A run already indexed has a newer record, so an older one is
        dropped.
        """
        entries = self._entries
        for line_key, run, duration in self._unindexed:
            members, outputs = index_form(run)
            entry = entries.get(line_key)
            if entry is None:
                entry = entries[line_key] = _Entry()
            elif members in entry.newer or members in entry.older:
                continue
            entry.older[members] = (outputs, duration)
            if line_key == key and len(entry) >= count:
                return

    def _read_block(self) -> bytes:
        """The memo's complete lines appended since the last read; none
        from an unreadable memo, which degrades the cache to a
        process-local one."""
        if self.memo is None:
            return b""
        try:
            return self.memo.read_block()
        except OSError:
            return b""

    def sync(self) -> int:
        """Index the runs appended to the shared memo since the last
        read, as newer than every run indexed so far.

        Returns the number of memo entries read, repeats included; a
        cache that has read nothing reads the whole memo.  A line in the
        writer's form is indexed without decoding it; any other line is
        decoded at once.
        """
        with self._lock:
            block = self._read_block()
            remember = self._remember
            read = 0
            for read, (key, run, duration) in enumerate(scan(block), 1):
                remember(key, run, duration)
            return read

    def invalidate(self) -> None:
        """Drop the in-memory index; the memo is re-read on next use."""
        with self._lock:
            self._entries.clear()
            self._unindexed = iter(())
            if self.memo is not None:
                self.memo.rewind()

    def __len__(self) -> int:
        """The keys remembered, once every memo line read is indexed."""
        with self._lock:
            self._index_back()
            return len(self._entries)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def _newest_first(self, key: str) -> Iterator[_Record]:
        """The records of the runs remembered for ``key``, newest first.

        The memo's new lines are read first.  A cache that has indexed
        nothing yet takes them as unindexed and indexes them from the
        last line back, only as far as the next run asked for; any other
        cache indexes them at once, as newer than every run it holds.
        """
        with self._lock:
            if self._entries:
                self.sync()
            else:
                self._unindexed = scan_back(self._read_block())
            runs = self._runs(key, 1)
        tried = 0
        while tried < len(runs):
            yield runs[tried]
            tried += 1
            if tried == len(runs):
                with self._lock:
                    runs = self._runs(key, tried + 1)

    def _runs(self, key: str, count: int) -> list[_Record]:
        """The records of ``key``'s runs, newest first, after indexing
        older memo lines until it holds ``count`` runs or none is
        left."""
        entry = self._entries.get(key)
        if entry is None or len(entry) < count:
            self._index_back(key, count)
            entry = self._entries.get(key)
        return [] if entry is None else entry.newest_first()

    def fetch(self, key: str, output_types: Iterable[str], *,
              tool_id: str | None,
              combo: Mapping[str, Any]) -> CacheHit | None:
        """Newest remembered run for ``key`` that is still reusable.

        Runs are tried newest first, each as new as its newest record
        (:meth:`_newest_first`).  One is taken only when it covers the
        requested output types, its instances re-derive ``key``
        (:meth:`_derives`) and they are up to date version-wise; a stale
        run is skipped and counted as invalidated.  A hit saves the
        duration its record carries.  Updates hit/miss statistics.

        ``key`` is :meth:`tool_run_key` of ``tool_id``, ``combo`` and
        ``output_types`` or, with ``tool_id`` None, the
        :meth:`composition_key` of the one output type and ``combo``.
        """
        wanted = sorted(output_types)
        source = (tool_id, wanted, {role: sorted(_input_ids(ref))
                                    for role, ref in combo.items()})
        for outputs, duration in self._newest_first(key):
            group = decode_outputs(outputs)
            if sorted(entity_type for entity_type, _ in group) != wanted:
                continue
            ids = [instance_id for _, instance_id in group]
            members = self._members(ids)
            if members is None or not self._derives(key, members, source):
                continue
            if not all_up_to_date(self.db, ids):
                with self._lock:
                    self.stats.invalidated += 1
                continue
            bytes_saved = sum(self.db.datastore.size(member.data_ref)
                              for member in members
                              if member.data_ref is not None)
            with self._lock:
                self.stats.hits += 1
                self.stats.bytes_saved += bytes_saved
                self.stats.time_saved += duration
            return CacheHit(key, group, duration, bytes_saved)
        with self._lock:
            self.stats.misses += 1
        return None

    def store(self, key: str, outputs: Iterable[tuple[str, str]],
              duration: float = 0.0) -> None:
        """Index one freshly executed run under its key, as its newest.

        ``duration`` is the run's measured time: a hit that reuses the
        run saves it.  The run is reusable in this process at once; with
        a shared memo attached, its line waits for the next
        :meth:`publish`.
        """
        group = tuple(outputs)
        if not group:
            return
        with self._lock:
            self._remember(key, group, duration)
            if self.memo is not None:
                self._unpublished.append((key, group, duration))

    def publish(self) -> None:
        """Append the runs stored since the last publish to the memo.

        Lines other writers appended meanwhile are absorbed first.  The
        batch is one memo append: one exclusive lock, one write, one
        ``fsync``.  The executor publishes once per run, when it ends.
        """
        with self._lock:
            self.sync()
            batch, self._unpublished = self._unpublished, []
            if not batch or self.memo is None:
                return
            try:
                self.memo.append(batch)
            except OSError:
                pass  # unwritable memo: stay process-local

    def __repr__(self) -> str:
        return f"DerivationCache({len(self._entries)} keys)"
