"""Event sinks: where emitted events go.

A sink is anything with ``handle(event)`` (and optionally ``close()``).
Three are provided:

* :class:`NullSink` — drops events (explicit no-op);
* :class:`RingBufferSink` — keeps the last N events in memory, the
  test/debug sink;
* :class:`JSONLSink` — schema-versioned append-only JSON-lines log,
  replayable with :func:`replay_events` into an identical event
  sequence (and therefore into any other sink, e.g. a
  :class:`~repro.obs.metrics.MetricsRegistry`).

Every obs log is written through :func:`append_line` and read back
through :class:`JSONLReader`.
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import pathlib
import stat
import time
from typing import Any, BinaryIO, Callable, Iterable, Iterator

from ..errors import ObservabilityError
from .events import Event

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]


class EventSink:
    """Base class documenting the sink interface."""

    def handle(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; further ``handle`` calls are undefined."""


class NullSink(EventSink):
    """Swallows every event."""

    def handle(self, event: Event) -> None:
        pass


class RingBufferSink(EventSink):
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ObservabilityError("ring buffer capacity must be >= 1")
        self._buffer: collections.deque[Event] = collections.deque(
            maxlen=capacity)

    def handle(self, event: Event) -> None:
        self._buffer.append(event)

    def events(self, event_type: str | None = None) -> tuple[Event, ...]:
        if event_type is None:
            return tuple(self._buffer)
        return tuple(e for e in self._buffer
                     if e.event_type == event_type)

    def clear(self) -> None:
        self._buffer.clear()

    def __len__(self) -> int:
        return len(self._buffer)


def open_log(path: pathlib.Path) -> int:
    """Open a log for :func:`append_line`, creating it and its parent."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o666)


def append_line(fd: int, line: str) -> None:
    """Append one record line to the JSON-lines log open on ``fd``.

    Every log writer goes through here.  An exclusive ``flock`` on the
    log's own descriptor serializes writers, so two processes never
    interleave records.  Under it, an unterminated tail of a regular
    file — the partial line of a writer killed mid-append — is cut back
    to the last newline; appended after it, this record would be glued
    onto the torn line and both would be lost to readers.  A pipe or
    terminal (``--events /dev/stdout``) has no tail to cut.
    """
    data = (line + "\n").encode("utf-8")
    if fcntl is not None:
        fcntl.flock(fd, fcntl.LOCK_EX)
    try:
        end = keep = (os.lseek(fd, 0, os.SEEK_END)
                      if stat.S_ISREG(os.fstat(fd).st_mode) else 0)
        block = 1  # an intact log ends in a newline: one byte tells
        while keep:  # back to the last newline
            start = max(0, keep - block)
            os.lseek(fd, start, os.SEEK_SET)
            newline = os.read(fd, keep - start).rfind(b"\n")
            if newline >= 0:
                keep = start + newline + 1
                break
            keep, block = start, 4096
        if keep < end:
            os.ftruncate(fd, keep)
        while data:  # os.write may take only part of the line
            data = data[os.write(fd, data):]
    finally:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_UN)


def append_jsonl(path: str | pathlib.Path, line: str) -> None:
    """:func:`append_line` on the log at ``path``."""
    fd = open_log(pathlib.Path(path))
    try:
        append_line(fd, line)
    finally:
        os.close(fd)


class JSONLSink(EventSink):
    """Append-only JSON-lines event log.

    One event per line, written eagerly so a crashed run still leaves a
    readable prefix.  Each line goes through :func:`append_line`, so two
    writers on one file (two runs tracing into one directory) never
    interleave their records, and a line torn by a killed writer is cut
    before the next one lands.  The file opens lazily on the first
    event, so attaching the sink to an execution that emits nothing
    creates no file.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self._fd: int | None = None

    def handle(self, event: Event) -> None:
        if self._fd is None:
            self._fd = open_log(self.path)
        append_line(self._fd, json.dumps(event.to_dict(), sort_keys=True))

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "JSONLSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class JSONLReader:
    """Incremental, byte-offset decoder of one JSON-lines log.

    Every obs log is read back through here: the event log, the trace,
    the ledger and the profiles, in full or followed live.  Each
    :meth:`read` decodes the lines appended since the previous one, and
    passes every object through ``decode`` (the record type's
    ``from_dict``) inside the loop, so a line that is not JSON, not an
    object, or not the shape ``decode`` expects ends the read with one
    :class:`ObservabilityError` naming ``path:line``.  ``kind`` names
    the log in the error a missing file raises.
    """

    def __init__(self, path: str | pathlib.Path,
                 decode: Callable[[dict[str, Any]], Any] = dict,
                 kind: str = "log") -> None:
        self.path = pathlib.Path(path)
        self.decode = decode
        self.kind = kind
        self.offset = 0  # bytes read so far
        self.lineno = 0  # lines decoded so far
        self._tail = b""  # read bytes awaiting their newline

    def read(self, *, strict: bool = True, final: bool = True,
             handle: BinaryIO | None = None
             ) -> Iterator[tuple[int, Any]]:
        """Yield ``(lineno, record)`` for each line read since the last
        call.

        ``final`` reads to the end of the file, so an unterminated last
        line counts as a line; otherwise it waits for its newline (a
        writer caught mid-append).  ``strict=False`` forgives a corrupt
        or non-object line *at the tail only*, the partial final line a
        killed writer leaves behind: the failure is held and raised only
        if a line that parses follows, since corruption mid-log is real
        damage, not truncation.  A record ``decode`` rejects is never
        forgiven: a torn line does not parse.  ``handle``, an open
        binary file, is read in place of opening ``path``.
        """
        if handle is None and not self.path.exists():
            raise ObservabilityError(f"no {self.kind} at {self.path}")
        pending: ObservabilityError | None = None
        with (open(self.path, "rb") if handle is None
              else contextlib.nullcontext(handle)) as handle:
            handle.seek(self.offset)
            for raw in handle:  # binary: lines end at b"\n" only
                self.offset += len(raw)
                raw, self._tail = self._tail + raw, b""
                if not final and not raw.endswith(b"\n"):
                    self._tail = raw
                    break
                self.lineno += 1
                where = f"{self.path}:{self.lineno}"
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    spec = json.loads(line)
                except ValueError as error:  # bad JSON or bad UTF-8
                    problem = ObservabilityError(
                        f"{where}: corrupt line ({error})")
                    if strict:
                        raise problem from None
                    pending = problem
                    continue
                if pending is not None:
                    raise pending from None  # corruption mid-file
                if not isinstance(spec, dict):
                    problem = ObservabilityError(
                        f"{where}: expected a JSON object, got "
                        f"{type(spec).__name__}")
                    if strict:
                        raise problem
                    pending = problem
                    continue
                try:
                    record = self.decode(spec)
                except ObservabilityError as error:
                    raise ObservabilityError(f"{where}: {error}") from None
                except (AttributeError, KeyError, TypeError,
                        ValueError) as error:
                    raise ObservabilityError(
                        f"{where}: malformed record "
                        f"({type(error).__name__}: {error})") from None
                yield self.lineno, record

    def follow(self, *, poll_interval: float = 0.5,
               sleep: Callable[[float], None] = time.sleep,
               stop: Callable[[], bool] | None = None
               ) -> Iterator[tuple[int, Any]]:
        """Tail the log: yield records as a live writer appends them.

        Repeated strict reads, each holding an unterminated tail until
        its newline arrives.  A missing file is waited for (watching an
        environment about to run), and a file that shrinks, or that is
        deleted or renamed away and replaced by another file
        (rotation), restarts from the top.  ``stop`` is polled between
        reads; returning True ends the follow — without it the
        generator runs until the consumer stops iterating (e.g.
        KeyboardInterrupt in the CLI).
        """
        # the file being read, held open so that a file created at the
        # path later never gets its (st_dev, st_ino), and read through,
        # so that the identity checked and the bytes read are one file's
        held: BinaryIO | None = None
        try:
            while True:
                if self.path.exists():
                    replaced = held is not None and not os.path.samestat(
                        os.fstat(held.fileno()), self.path.stat()
                    )
                    if held is None or replaced:
                        if held is not None:
                            held.close()
                        held = open(self.path, "rb")
                    size = os.fstat(held.fileno()).st_size
                    if replaced or size < self.offset:
                        # rotated or truncated: start over
                        self.offset = self.lineno = 0
                        self._tail = b""
                    if size > self.offset:
                        yield from self.read(final=False, handle=held)
                if stop is not None and stop():
                    return
                sleep(poll_interval)
        finally:
            if held is not None:
                held.close()


def iter_jsonl_objects(path: str | pathlib.Path, *,
                       strict: bool = True
                       ) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield ``(lineno, object)`` pairs from a JSON-lines file (see
    :meth:`JSONLReader.read` for ``strict``)."""
    return JSONLReader(path).read(strict=strict)


def follow_jsonl_objects(path: str | pathlib.Path, *,
                         poll_interval: float = 0.5,
                         sleep: Callable[[float], None] = time.sleep,
                         stop: Callable[[], bool] | None = None
                         ) -> Iterator[tuple[int, dict[str, Any]]]:
    """Tail a JSON-lines file (:meth:`JSONLReader.follow`)."""
    return JSONLReader(path).follow(poll_interval=poll_interval,
                                    sleep=sleep, stop=stop)


def follow_events(path: str | pathlib.Path, *,
                  poll_interval: float = 0.5,
                  sleep: Callable[[float], None] = time.sleep,
                  stop: Callable[[], bool] | None = None
                  ) -> Iterator[Event]:
    """Tail a :class:`JSONLSink` event log (``repro events --follow``)."""
    reader = JSONLReader(path, Event.from_dict, "event log")
    for _, event in reader.follow(poll_interval=poll_interval,
                                  sleep=sleep, stop=stop):
        yield event


def replay_events(path: str | pathlib.Path, *,
                  strict: bool = True) -> Iterator[Event]:
    """Stream events back out of a :class:`JSONLSink` log, in order.

    See :meth:`JSONLReader.read` for ``strict`` semantics.
    """
    reader = JSONLReader(path, Event.from_dict, "event log")
    for _, event in reader.read(strict=strict):
        yield event


def read_events(path: str | pathlib.Path, *,
                strict: bool = True) -> tuple[Event, ...]:
    """Eager variant of :func:`replay_events`."""
    return tuple(replay_events(path, strict=strict))


def replay_into(events: Iterable[Event], *sinks: Any) -> int:
    """Feed an event sequence through sinks; returns the event count."""
    count = 0
    for event in events:
        for sink in sinks:
            sink.handle(event)
        count += 1
    return count
