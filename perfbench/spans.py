"""In-memory spans around the program's public calls (the traced run).

The program is not edited: :class:`Patches` replaces each traced
function at the name its caller looks up (a class attribute or a module
global) with a wrapper that opens a span, and puts the original back
afterwards.  Spans of one op share a trace id.  They stay in memory and
are written out once, when the benchmark ends.

A span started on a thread with no open span of its own (the procpool
coordinator's lane threads) takes the innermost open span of the main
thread as its parent, so lane work nests under ``execution.execute``.
Forked worker processes inherit the wrappers, but what they record never
leaves the worker: per-layer numbers cover the coordinator only.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.core.taskgraph import TaskGraph
from repro.execution import cache as cache_module
from repro.execution.cache import DerivationCache
from repro.execution.encapsulation import (EncapsulationRegistry,
                                           ToolEncapsulation)
from repro.execution.shared_memo import SharedDerivationMemo
from repro.history import consistency as consistency_module
from repro.history.database import HistoryDatabase
from repro.history.datastore import DataStore
from repro.history.sqlite_store import SqliteHistoryStore
from repro.history.store import InMemoryHistoryStore
from repro.obs.ledger import RunLedger

#: (owner, attribute looked up by the caller, span name)
TARGETS: tuple[tuple[Any, str, str], ...] = (
    (TaskGraph, "validate", "core.plan"),
    (TaskGraph, "topological_order", "core.plan"),
    (TaskGraph, "invocations", "core.plan"),
    (DerivationCache, "tool_run_key", "cache.key"),
    (DerivationCache, "composition_key", "cache.key"),
    (DerivationCache, "fetch", "cache.fetch"),
    (DerivationCache, "store", "cache.store"),
    (cache_module, "all_up_to_date", "cache.validate"),
    (SharedDerivationMemo, "poll", "memo.poll"),
    (SharedDerivationMemo, "append", "memo.append"),
    (EncapsulationRegistry, "signature", "registry.signature"),
    (ToolEncapsulation, "run", "tool.body"),
    (HistoryDatabase, "record", "history.record"),
    (DataStore, "put", "datastore.put"),
    (InMemoryHistoryStore, "add", "store.add"),
    (SqliteHistoryStore, "add", "store.add"),
    (consistency_module, "backward_trace", "history.backward_trace"),
    (consistency_module, "forward_closure", "history.forward_closure"),
    (RunLedger, "record_run", "obs.ledger"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace")

    def __init__(self, name: str, start: float, parent: "Span | None",
                 trace: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trace = trace


class SpanRecorder:
    """Collects spans of the ops run between :meth:`op` enter and exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: byte counts recorded next to the spans (``datastore.bytes``)
        self.amounts: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._trace: int | None = None
        self._main_ident = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        trace = self._trace
        if trace is None:  # between ops: pass straight through
            yield
            return
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        record = Span(name, time.perf_counter(), parent, trace)
        self.spans.append(record)
        stack.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            stack.pop()

    @contextmanager
    def op(self, trace: int) -> Iterator[None]:
        """Open the root span of one op under trace id ``trace``."""
        self._trace = trace
        try:
            with self.span("op"):
                yield
        finally:
            self._trace = None

    def add(self, name: str, amount: float) -> None:
        if self._trace is not None:
            with self._lock:  # procpool lanes add concurrently
                self.amounts[name] += amount

    def write(self, path: Any) -> None:
        """Write every span as one JSON line (ids are list positions)."""
        index = {id(span): position
                 for position, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for position, span in enumerate(self.spans):
                parent = (index[id(span.parent)]
                          if span.parent is not None else None)
                handle.write(json.dumps(
                    {"id": position, "name": span.name,
                     "start": span.start, "end": span.end,
                     "parent": parent, "trace": span.trace}) + "\n")


def _wrap(recorder: SpanRecorder, name: str,
          fn: Callable[..., Any]) -> Callable[..., Any]:
    if name == "datastore.put":
        def traced_put(store: DataStore, obj: Any) -> str:
            with recorder.span(name):
                ref = fn(store, obj)
            recorder.add("datastore.bytes", store.size(ref))
            return ref
        return traced_put

    def traced(*args: Any, **kwargs: Any) -> Any:
        with recorder.span(name):
            return fn(*args, **kwargs)
    return traced


class Patches:
    """Install the :data:`TARGETS` wrappers; ``remove`` restores them."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        for owner, attribute, name in TARGETS:
            original = vars(owner)[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(self.recorder, name, original))

    def remove(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def _covered(start: float, end: float, children: list[Span]) -> float:
    """Length of [start, end] covered by the union of the children."""
    intervals = sorted((max(c.start, start), min(c.end, end))
                       for c in children)
    covered = 0.0
    cursor = start
    for low, high in intervals:
        low = max(low, cursor)
        if high > low:
            covered += high - low
            cursor = high
    return covered


def summarize(spans: list[Span]) -> tuple[dict[str, float],
                                          dict[str, float],
                                          Counter[str]]:
    """(inclusive seconds, self seconds, span count) per span name.

    A span nested inside another span of the same name (a recursive or
    re-entrant call) adds to the count and to self time but not again
    to inclusive time.  Self time is the span's duration minus the part
    of it that its child spans cover, so self times never double count
    overlapping children on concurrent threads.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    count: Counter[str] = Counter()
    for span in spans:
        count[span.name] += 1
        duration = span.end - span.start
        own[span.name] += duration - _covered(
            span.start, span.end, children.get(id(span), []))
        ancestor = span.parent
        while ancestor is not None and ancestor.name != span.name:
            ancestor = ancestor.parent
        if ancestor is None:
            inclusive[span.name] += duration
    return inclusive, own, count
