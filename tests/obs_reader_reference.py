"""The two JSON-lines readers obs used before they were merged.

``iter_jsonl_objects`` (a full read, strict or tail-lenient) and
``follow_jsonl_objects`` (a live tail) are kept here verbatim as the
oracle for :class:`repro.obs.sinks.JSONLReader`, the one reader that
replaced them; ``tests/test_obs_reader.py`` demands the same
``(lineno, object)`` sequences and the same errors from both on random
logs.  Only the text of the missing-file error differs: the new reader
names the kind of log it was asked for.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Callable, Iterator

from repro.errors import ObservabilityError


def iter_jsonl_objects(path: str | pathlib.Path, *,
                       strict: bool = True
                       ) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield ``(lineno, object)`` pairs from a JSON-lines file.

    ``strict=True`` raises on any corrupt line.  ``strict=False``
    tolerates corruption *at the tail only* — the partial final line a
    killed writer leaves behind — by buffering a decode failure and
    forgiving it if no valid line follows.  A corrupt line in the
    middle of the log (valid data after it) still raises, since that
    means real damage, not mere truncation.
    """
    log = pathlib.Path(path)
    if not log.exists():
        raise ObservabilityError(f"no event log at {log}")
    pending: ObservabilityError | None = None
    with open(log, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                spec = json.loads(line)
            except json.JSONDecodeError as error:
                problem = ObservabilityError(
                    f"{log}:{lineno}: corrupt line ({error})")
                if strict:
                    raise problem from None
                pending = problem
                continue
            if pending is not None:
                raise pending from None  # corruption mid-file
            if not isinstance(spec, dict):
                problem = ObservabilityError(
                    f"{log}:{lineno}: expected a JSON object, got "
                    f"{type(spec).__name__}")
                if strict:
                    raise problem
                pending = problem
                continue
            yield lineno, spec


def follow_jsonl_objects(path: str | pathlib.Path, *,
                         poll_interval: float = 0.5,
                         sleep: Callable[[float], None] = time.sleep,
                         stop: Callable[[], bool] | None = None
                         ) -> Iterator[tuple[int, dict[str, Any]]]:
    """Tail a JSON-lines file: yield objects as a live writer appends.

    The torn-tail discipline of :func:`iter_jsonl_objects` applies
    incrementally: a partial trailing line (a write caught mid-flush)
    is buffered until its newline arrives, while a newline-*terminated*
    line that fails to parse raises — that is real damage, not
    truncation.  A missing file is waited for (watching an environment
    about to run), and a file that shrinks (rotation) restarts from the
    top.  ``stop`` is polled between reads; returning True ends the
    follow — without it the generator runs until the consumer stops
    iterating (e.g. KeyboardInterrupt in the CLI).
    """
    log = pathlib.Path(path)
    offset = 0
    lineno = 0
    buffered = ""
    while True:
        if log.exists():
            size = log.stat().st_size
            if size < offset:  # rotated/truncated: start over
                offset = 0
                lineno = 0
                buffered = ""
            if size > offset:
                with open(log, "r", encoding="utf-8") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
                    offset = handle.tell()
                buffered += chunk
                while "\n" in buffered:
                    line, _, buffered = buffered.partition("\n")
                    lineno += 1
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        spec = json.loads(line)
                    except json.JSONDecodeError as error:
                        raise ObservabilityError(
                            f"{log}:{lineno}: corrupt line "
                            f"({error})") from None
                    if not isinstance(spec, dict):
                        raise ObservabilityError(
                            f"{log}:{lineno}: expected a JSON object, "
                            f"got {type(spec).__name__}")
                    yield lineno, spec
        if stop is not None and stop():
            return
        sleep(poll_interval)
