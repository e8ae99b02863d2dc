"""The derivation cache's memo reads and lookups, eager and decoded.

:class:`ReferenceCache` is a :class:`DerivationCache` whose ``sync``,
``_remember``, ``_derives``, ``fetch`` and ``attach_shared_memo`` index
every memo line as soon as it is read, in the order read, and decode it
at once.  Groups are kept per key in a dict by member set, with the
duration of their record, and every candidate group is re-keyed from its
derivation record.  A group recorded again moves to that record, the
newest, and takes its duration; a hit saves the duration of the group it
reuses.  A carry-over to another memo writes each group once with its
own duration, keys in sorted order and a key's groups oldest first.
``poll`` is ``SharedDerivationMemo.poll`` as it was, reading a memo's
lines and decoding each.  ``fetch`` takes, and ignores, the lookup's
tool instance and input combination, so an executor can drive it.
``tests/test_cache_index.py`` and ``tests/test_cache_runs_once.py``
demand the same groups, hits, misses, invalidations, savings and
carried-over memo lines from the cache on random memo logs and
histories.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import ReproError
from repro.execution.cache import CacheHit, DerivationCache
from repro.execution.shared_memo import (MEMO_SCHEMA_VERSION, MemoEntry,
                                         SharedDerivationMemo, _FileLock)
from repro.history.consistency import all_up_to_date


def poll(memo: SharedDerivationMemo) -> list[MemoEntry]:
    """Entries appended (by anyone) since the last poll.

    Only complete lines are returned; a torn trailing line (a
    writer mid-append on a non-POSIX box, or one that died
    mid-batch) is left for the next poll.  A log that has not grown
    past the read offset is not opened.
    """
    self = memo
    try:
        if os.stat(self.path).st_size <= self._offset:
            return []
    except FileNotFoundError:
        return []
    with _FileLock(self.lock_path, exclusive=False):
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
    entries: list[MemoEntry] = []
    consumed = 0
    for raw in chunk.split(b"\n"):
        end = consumed + len(raw) + 1
        if end > len(chunk):
            break  # incomplete trailing line: re-read next poll
        consumed = end
        try:
            record = json.loads(raw.decode("utf-8"))
            if record.get("v") != MEMO_SCHEMA_VERSION:
                continue
            outputs = tuple((str(t), str(i))
                            for t, i in record.get("outputs", ()))
            entry = (str(record.get("key", "")), outputs,
                     float(record.get("duration", 0.0)))
        except (ValueError, TypeError, AttributeError):
            # foreign garbage, skipped with its bytes consumed:
            # undecodable bytes or JSON, a non-object, outputs that
            # are not pairs, a non-numeric duration
            continue
        if outputs:
            entries.append(entry)
    self._offset += consumed
    return entries


@dataclass
class _Entry:
    """All remembered runs for one derivation key, oldest first."""

    #: member set -> ``(entity_type, instance_id)`` pairs and duration,
    #: as last recorded
    groups: dict[frozenset[tuple[str, str]],
                 tuple[tuple[tuple[str, str], ...], float]] = field(
        default_factory=dict)


class ReferenceCache(DerivationCache):
    """The cache with every memo line decoded and every group re-keyed."""

    def attach_shared_memo(
            self, path: str | pathlib.Path) -> SharedDerivationMemo:
        path = pathlib.Path(path)
        with self._lock:
            if self.memo is not None \
                    and self.memo.path.resolve() == path.resolve():
                return self.memo
            # queued lines go to the old memo; the carry-over below
            # writes them to the new one, so a later publish must not
            self.publish()
            memo = SharedDerivationMemo(path)
            carried = [(key, group, duration)
                       for key in sorted(self._entries)
                       for group, duration
                       in self._entries[key].groups.values()]
            if carried:
                memo.append(carried)
            self.memo = memo
            return memo

    def _derives(self, key: str, ids: list[str]) -> bool:
        """Whether the instances ``ids`` are one run that ``key`` names.

        The key is re-derived from the instances' own derivation record
        (tool instance and input contents) under the current code, so a
        memo line naming ids that this history recorded for another run
        — or never recorded at all — does not match.
        """
        if any(instance_id not in self.db for instance_id in ids):
            return False
        members = [self.db.get(instance_id) for instance_id in ids]
        derivation = members[0].derivation
        if derivation is None or any(member.derivation != derivation
                                     for member in members):
            return False
        combo: dict[str, list[str]] = {}
        for role, input_id in derivation.inputs:
            combo.setdefault(role, []).append(input_id)
        try:
            if derivation.tool is None:
                derived = self.composition_key(members[0].entity_type,
                                               combo)
            else:
                derived = self.tool_run_key(
                    derivation.tool, combo,
                    sorted({member.entity_type for member in members}))
        except ReproError:
            return False  # no longer derivable (code unregistered, ...)
        return derived == key

    def _remember(self, key: str, pairs: tuple[tuple[str, str], ...],
                  duration: float) -> None:
        entry = self._entries.setdefault(key, _Entry())
        entry.groups.pop(frozenset(pairs), None)
        entry.groups[frozenset(pairs)] = (pairs, duration)

    def sync(self) -> int:
        """Absorb the runs appended to the shared memo since last time.

        Returns the number of memo entries read.  An unreadable memo
        degrades the cache to a process-local one.
        """
        with self._lock:
            if self.memo is None:
                return 0
            try:
                polled = poll(self.memo)
            except OSError:
                return 0
            for key, pairs, duration in polled:
                self._remember(key, pairs, duration)
            return len(polled)

    def fetch(self, key: str, output_types: Iterable[str],
              **_lookup: Any) -> CacheHit | None:
        """Newest remembered run for ``key`` that is still reusable.

        Groups are tried newest first, each where it was last recorded.
        One is taken only when it covers the requested output types,
        its instances re-derive ``key`` (:meth:`_derives`) and they are
        up to date version-wise; a stale group is skipped and counted
        as invalidated.  Updates hit/miss statistics.
        """
        wanted = sorted(output_types)
        with self._lock:
            self.sync()
            entry = self._entries.get(key) or _Entry()
            groups = list(entry.groups.values())
        for group, duration in reversed(groups):
            types = sorted(entity_type for entity_type, _ in group)
            if types != wanted:
                continue
            ids = [instance_id for _, instance_id in group]
            if not self._derives(key, ids):
                continue
            if not all_up_to_date(self.db, ids):
                with self._lock:
                    self.stats.invalidated += 1
                continue
            bytes_saved = 0
            for instance_id in ids:
                ref = self.db.get(instance_id).data_ref
                if ref is not None:
                    bytes_saved += self.db.datastore.size(ref)
            with self._lock:
                self.stats.hits += 1
                self.stats.bytes_saved += bytes_saved
                self.stats.time_saved += duration
            return CacheHit(key, tuple(group), duration, bytes_saved)
        with self._lock:
            self.stats.misses += 1
        return None
