"""Cross-process shared derivation memo (file-locked append log).

The memo is the :class:`~repro.execution.cache.DerivationCache` index's
only saved copy: an append-only JSONL log (``memo.jsonl`` under the
environment directory) where each line records one derivation-key ->
outputs group and the run's duration.  Concurrent ``repro run``
invocations sharing one environment directory see each other's
remembered tool runs through it; in a procpool run the coordinator
reads and writes it, never the worker processes.  A writing run's lines
appear when its ``execute()`` returns.  A line is a claim, not a proof:
the cache re-derives the key from the named instances' derivation
records before it reuses them.

Safety model (batched appends, shared readers):

* each run's lines go out as one batch: an **exclusive** ``flock`` on a
  sidecar lock file, one write, one ``fsync``, release — concurrent
  writers serialize, batches never interleave, and every line is
  durable before the writing run's ``execute()`` returns;
* a writer that finds the log ending mid-line (another writer died
  mid-batch) writes a newline first, so the torn line is consumed as
  garbage and the batch loses none of its own lines;
* readers ``stat`` the log first and return at once when it has not
  grown past their byte offset; otherwise they take a **shared** lock,
  read to the end of file, and only advance past *complete* lines — a
  reader racing a writer at worst re-reads the same tail next poll, it
  never adopts a torn line;
* a complete line that does not decode, or decodes to another schema
  version or shape, is consumed and skipped.

Lines in the older format also carry a ``sig`` field (a registry
signature); it is ignored, since every key already embeds the code
fingerprint of the tool that ran.

On platforms without ``fcntl`` the memo degrades to an O_EXCL spin
lock around the same protocol.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Any, Sequence

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

MEMO_SCHEMA_VERSION = 1

#: (key, ((entity_type, instance_id), ...), duration)
MemoEntry = tuple[str, tuple[tuple[str, str], ...], float]


class _FileLock:
    """Advisory lock on a sidecar file, exclusive or shared.

    ``fcntl.flock`` where available; otherwise an ``O_CREAT | O_EXCL``
    spin lock (always exclusive — correct, just less concurrent).
    """

    def __init__(self, path: pathlib.Path, *, exclusive: bool) -> None:
        self.path = path
        self.exclusive = exclusive
        self._fd: int | None = None

    def __enter__(self) -> "_FileLock":
        if fcntl is not None:
            self._fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            fcntl.flock(self._fd, fcntl.LOCK_EX if self.exclusive
                        else fcntl.LOCK_SH)
            return self
        while True:  # pragma: no cover - non-POSIX fallback
            try:
                self._fd = os.open(self.path,
                                   os.O_CREAT | os.O_EXCL | os.O_RDWR)
                return self
            except FileExistsError:
                time.sleep(0.005)

    def __exit__(self, *exc_info: Any) -> None:
        if self._fd is None:
            return
        if fcntl is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
        else:  # pragma: no cover - non-POSIX fallback
            os.close(self._fd)
            try:
                os.unlink(self.path)
            except OSError:
                pass
        self._fd = None


class SharedDerivationMemo:
    """Append-only derivation memo shared between processes."""

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self.lock_path = self.path.with_name(self.path.name + ".lock")
        self._offset = 0

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, entries: Sequence[MemoEntry]) -> None:
        """Publish freshly executed runs for other processes.

        One exclusive lock, one write and one ``fsync`` for the whole
        batch, so its lines land contiguous and durable.
        """
        batch = "".join(
            json.dumps(
                {"duration": duration, "key": key,
                 "outputs": [[t, i] for t, i in outputs],
                 "v": MEMO_SCHEMA_VERSION},
                sort_keys=True, separators=(",", ":")) + "\n"
            for key, outputs, duration in entries).encode("utf-8")
        with _FileLock(self.lock_path, exclusive=True):
            with open(self.path, "a+b") as handle:
                # close a line torn by a writer that died mid-batch, or
                # it would swallow this batch's first line
                if handle.seek(0, os.SEEK_END):
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        batch = b"\n" + batch
                handle.write(batch)
                handle.flush()
                os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def poll(self) -> list[MemoEntry]:
        """Entries appended (by anyone) since the last poll.

        Only complete lines are returned; a torn trailing line (a
        writer mid-append on a non-POSIX box, or one that died
        mid-batch) is left for the next poll.  A log that has not grown
        past the read offset is not opened.
        """
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

    def rewind(self) -> None:
        """Forget the read offset; the next poll re-reads everything."""
        self._offset = 0

    def __repr__(self) -> str:
        return (f"SharedDerivationMemo({str(self.path)!r}, "
                f"offset={self._offset})")


__all__ = [
    "MEMO_SCHEMA_VERSION",
    "MemoEntry",
    "SharedDerivationMemo",
]
