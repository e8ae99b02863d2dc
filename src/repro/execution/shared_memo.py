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
import re
import time
from json.encoder import encode_basestring_ascii as _json_string
from typing import Any, Iterable, Iterator, Sequence

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

MEMO_SCHEMA_VERSION = 1

#: ((entity_type, instance_id), ...): the instances one run produced
Group = tuple[tuple[str, str], ...]
#: (key, group, duration)
MemoEntry = tuple[str, Group, float]
#: (key, outputs, duration) as :func:`scan` gives it: the outputs as
#: their undecoded JSON for a line in the writer's form, else as pairs
Scanned = tuple[str, bytes | Group, float]


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


def _decode_entry(raw: bytes) -> MemoEntry | None:
    """The entry one complete memo line records, or None.

    None for foreign garbage: undecodable bytes or JSON, a non-object,
    another schema version, outputs that are not pairs or are empty, a
    non-numeric duration.
    """
    try:
        record = json.loads(raw.decode("utf-8"))
        if record.get("v") != MEMO_SCHEMA_VERSION:
            return None
        outputs = tuple((str(t), str(i))
                        for t, i in record.get("outputs", ()))
        entry = (str(record.get("key", "")), outputs,
                 float(record.get("duration", 0.0)))
    except (ValueError, TypeError, AttributeError):
        return None
    return entry if outputs else None


#: a JSON string of printable ASCII without quote or backslash: its bytes
#: between the quotes are its value
_PLAIN = rb'"[ !#-\[\]-~]*"'
#: one line: in exactly the form :meth:`SharedDerivationMemo.append`
#: writes, with plain strings only and a JSON number for a duration (at
#: most 16 integer digits, so ``float`` reads it as ``json`` does), its
#: duration, key and outputs; otherwise the whole line, in the last group
_LINE = re.compile(
    rb'^(?:\{"duration":(-?(?:0|[1-9][0-9]{0,15})(?:\.[0-9]+)?'
    rb'(?:[eE][-+]?[0-9]+)?),"key":"([ !#-\[\]-~]*)","outputs":(\[\['
    + _PLAIN + rb',' + _PLAIN + rb'\](?:,\[' + _PLAIN + rb',' + _PLAIN
    + rb'\])*\]),"v":' + str(MEMO_SCHEMA_VERSION).encode()
    + rb'\}|(.*))$', re.MULTILINE)


def scan(block: bytes) -> Iterator[Scanned]:
    """``(key, outputs, duration)`` of each entry in a block of complete
    memo lines, in order.

    A line in the writer's form certainly records an entry: its outputs
    come as their undecoded JSON (:func:`decode_outputs` gives the
    pairs), so a reader can index it by key and decode it only when
    asked for it.  Any other line is decoded at once
    (:func:`_decode_entry`), its outputs come as pairs, and a line that
    records no entry is skipped.
    """
    return _entries(_LINE.findall(block))


def scan_back(block: bytes) -> Iterator[Scanned]:
    """:func:`scan` of a block of complete memo lines, last line first.

    Each line is found and matched only when the reader asks for its
    entry, so a reader that stops early pays for the lines it took.
    """
    return _entries(_lines_back(block))


def _lines_back(block: bytes) -> Iterator[tuple[bytes | None, ...]]:
    """The :data:`_LINE` groups of each line of ``block``, last first."""
    match = _LINE.match
    end = len(block) - 1  # the newline that ends the last line
    while end >= 0:
        start = block.rfind(b"\n", 0, end) + 1
        yield match(block, start, end).groups()
        end = start - 1


def _entries(lines: Iterable[tuple[bytes | None, ...]]) -> Iterator[Scanned]:
    """The entries that lines matched by :data:`_LINE` record."""
    for duration, key, outputs, other in lines:
        if duration:
            yield key.decode("ascii"), outputs, float(duration)
        elif other:
            entry = _decode_entry(other)
            if entry is not None:
                yield entry


def decode_outputs(outputs: bytes) -> Group:
    """The ``(entity_type, instance_id)`` pairs of a line in the writer's
    form, from the outputs JSON :func:`scan` gave."""
    return tuple((t, i) for t, i in json.loads(outputs))


def index_form(outputs: bytes | Group) -> tuple[bytes, bytes]:
    """``(members, outputs JSON)`` of one entry's outputs, as :func:`scan`
    gives them: a key equal for every entry with the same set of pairs,
    and the outputs JSON as the writer writes it.

    The key is the outputs JSON of the distinct pairs, sorted, so a
    one-pair entry's key is its outputs JSON itself.  Pairs are encoded
    one by one, as the writer encodes them.  JSON from :func:`scan`
    holds plain strings only, with no quote or backslash, so ``"],["``
    there only ever separates two pairs.
    """
    if isinstance(outputs, bytes):
        members = outputs[3:-3].split(b'"],["')
    else:
        pairs = [f"{_json_string(t)},{_json_string(i)}" for t, i in outputs]
        outputs = f"[[{'],['.join(pairs)}]]".encode()
        members = [pair[1:-1].encode() for pair in pairs]
    if len(members) == 1:
        return outputs, outputs
    return b'[["%s"]]' % b'"],["'.join(sorted(set(members))), outputs


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
    def read_block(self) -> bytes:
        """The complete lines appended (by anyone) since the last read,
        undecoded, as one block.

        A torn trailing line (a writer mid-append on a non-POSIX box, or
        one that died mid-batch) is left for the next read.  A log that
        has not grown past the read offset is not opened.
        """
        try:
            if os.stat(self.path).st_size <= self._offset:
                return b""
        except FileNotFoundError:
            return b""
        with _FileLock(self.lock_path, exclusive=False):
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                chunk = handle.read()
        consumed = chunk.rfind(b"\n") + 1
        self._offset += consumed
        return chunk[:consumed]

    def poll(self) -> list[MemoEntry]:
        """Entries appended (by anyone) since the last poll.

        :func:`scan` of :meth:`read_block`, with every entry's outputs
        decoded to pairs.
        """
        return [(key, decode_outputs(outputs)
                 if isinstance(outputs, bytes) else outputs, duration)
                for key, outputs, duration in scan(self.read_block())]

    def rewind(self) -> None:
        """Forget the read offset; the next poll re-reads everything."""
        self._offset = 0

    def __repr__(self) -> str:
        return (f"SharedDerivationMemo({str(self.path)!r}, "
                f"offset={self._offset})")


__all__ = [
    "Group",
    "MEMO_SCHEMA_VERSION",
    "MemoEntry",
    "Scanned",
    "SharedDerivationMemo",
    "decode_outputs",
    "index_form",
    "scan",
    "scan_back",
]
