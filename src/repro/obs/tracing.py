"""Hierarchical span tracing with critical-path analysis.

The event layer records *that* execution happened (PR 1); spans record
*where the wall-clock went*.  A :class:`Tracer` produces a tree of
:class:`Span` records per executed run — ``run`` at the root, one
``wave`` per parallel branch or scheduler lane, one ``task`` per
coalesced invocation, and ``tool`` / ``compose`` / ``cache_lookup`` /
``decompose`` leaves — each carrying the trace/span identifiers that are
also stamped into the history records produced under it.  Provenance
queries answer "what produced this"; traces answer "what it cost"; the
shared ids make the two cross-queryable.

Span propagation is thread-safe by being *explicit*: the ambient span
context is thread-local, and a worker thread never inherits the
spawning thread's context implicitly — coordinators capture a
:class:`SpanContext` and adopt it in the worker via
:meth:`Tracer.activate`.  Finished spans flush through the existing sink
layer (anything with ``handle(record)``; :class:`~repro.obs.sinks.JSONLSink`
persists them as JSON lines), and :func:`read_spans` loads them back.

On top of the span tree this module implements :func:`critical_path`
(longest cost-weighted dependency chain over the executed task graph,
per-task slack, parallelism-efficiency ratio) and :func:`export_chrome`
(Chrome trace-event JSON that loads directly in Perfetto), both exposed
through the ``repro trace`` CLI.
"""

from __future__ import annotations

import itertools
import pathlib
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..dag import CycleError, dependencies, longest, topological
from ..errors import ObservabilityError
from .events import SinkFanout, check_schema_version
from .sinks import JSONLReader

TRACE_SCHEMA_VERSION = "trace.v1"

# ---------------------------------------------------------------------------
# span kinds (the taxonomy: run -> wave -> task -> leaf work)
# ---------------------------------------------------------------------------
RUN_SPAN = "run"
WAVE_SPAN = "wave"
TASK_SPAN = "task"
TOOL_SPAN = "tool"
COMPOSE_SPAN = "compose"
CACHE_SPAN = "cache_lookup"
DECOMPOSE_SPAN = "decompose"
#: In-worker phase of one tool/compose execution (envelope decode,
#: fingerprint verify, tool body, result encode) — emitted by the
#: procpool coordinator from worker-reported, skew-corrected samples.
PHASE_SPAN = "phase"

SPAN_KINDS = frozenset({
    RUN_SPAN,
    WAVE_SPAN,
    TASK_SPAN,
    TOOL_SPAN,
    COMPOSE_SPAN,
    CACHE_SPAN,
    DECOMPOSE_SPAN,
    PHASE_SPAN,
})


@dataclass(frozen=True)
class SpanContext:
    """The capturable identity of a live span (for propagation)."""

    trace_id: str
    span_id: str


@dataclass
class Span:
    """One timed region of flow execution.

    ``start``/``end`` come from the tracer's clock (monotonic by
    default); ``attributes`` carry the structured joins — entity types,
    instance ids, cache policy/outcome, scheduler wave, queue wait.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    kind: str
    start: float
    end: float = 0.0
    status: str = "ok"
    attributes: dict[str, Any] = field(default_factory=dict)
    schema_version: str = TRACE_SCHEMA_VERSION

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def set(self, **attributes: Any) -> "Span":
        """Merge structured attributes into the span (chainable)."""
        self.attributes.update(attributes)
        return self

    def value(self, key: str, default: Any = None) -> Any:
        return self.attributes.get(key, default)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, spec: dict[str, Any]) -> "Span":
        version = check_schema_version(spec, TRACE_SCHEMA_VERSION, "trace")
        return cls(
            trace_id=spec["trace_id"],
            span_id=spec["span_id"],
            parent_id=spec.get("parent_id"),
            name=spec.get("name", ""),
            kind=spec.get("kind", TASK_SPAN),
            start=float(spec.get("start", 0.0)),
            end=float(spec.get("end", 0.0)),
            status=spec.get("status", "ok"),
            attributes=dict(spec.get("attributes", {})),
            schema_version=version,
        )

    def render(self) -> str:
        """One human-readable line (the ``repro trace show`` format)."""
        parts = [f"{self.kind}:{self.name}"
                 if not self.name.startswith(self.kind) else self.name,
                 f"{self.duration * 1e3:.2f}ms"]
        if self.status != "ok":
            parts.append(f"[{self.status}]")
        for key in ("machine", "tool_type", "cache", "wave"):
            item = self.attributes.get(key)
            if item not in (None, ""):
                parts.append(f"{key}={item}")
        queue_wait = self.attributes.get("queue_wait")
        if queue_wait:
            parts.append(f"wait={float(queue_wait) * 1e3:.2f}ms")
        return " ".join(parts)


class _NullSpan:
    """Shared do-nothing span handed out by a disabled tracer.

    Its ``context`` is ``None``, so downstream consumers (history
    stamping, child spans) naturally skip trace linkage.
    """

    __slots__ = ()

    context: SpanContext | None = None
    duration: float = 0.0
    status: str = "ok"

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def value(self, key: str, default: Any = None) -> Any:
        return default


NULL_SPAN = _NullSpan()


class Tracer(SinkFanout):
    """Builds hierarchical spans and flushes finished ones to sinks.

    Shares the :class:`~repro.obs.events.EventBus` fan-out: with no
    sinks subscribed every :meth:`span` call yields the shared
    :data:`NULL_SPAN` and costs one truth test, so untraced execution
    stays on the fast path.  The ambient context stack is thread-local;
    cross-thread propagation is explicit via :meth:`activate`.
    """

    def __init__(self, *,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        super().__init__()
        self.clock = clock
        self.last_trace_id: str | None = None
        self._span_seq: "itertools.count[int]" = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------------
    # ambient context (thread-local; propagated explicitly)
    # ------------------------------------------------------------------
    def _stack(self) -> list[SpanContext]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> SpanContext | None:
        """The innermost active span context of this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def activate(self, context: SpanContext | None) -> Iterator[None]:
        """Adopt a captured span context in the current thread.

        Worker threads never see the coordinator's ambient context; the
        coordinator captures ``span.context`` and activates it inside
        the worker so child spans attach to the right parent.  A
        ``None`` context (disabled tracer) is a no-op.
        """
        if context is None:
            yield
            return
        stack = self._stack()
        stack.append(context)
        try:
            yield
        finally:
            stack.pop()

    # ------------------------------------------------------------------
    # span construction
    # ------------------------------------------------------------------
    def start_span(self, name: str, kind: str, *,
                   parent: SpanContext | None = None,
                   attributes: dict[str, Any] | None = None,
                   start: float | None = None) -> Span:
        """Open a span; without an explicit or ambient parent it roots
        a fresh trace.

        ``start`` overrides the clock — used when the span describes
        work that already happened somewhere else (a worker process)
        and its observed timestamps are being merged in after the fact.
        """
        if kind not in SPAN_KINDS:
            raise ObservabilityError(f"unknown span kind {kind!r}")
        if parent is None:
            parent = self.current()
        if parent is None:
            trace_id = uuid.uuid4().hex[:16]
            parent_id = None
            self.last_trace_id = trace_id
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        return Span(
            trace_id=trace_id,
            span_id=f"s{next(self._span_seq):06d}",
            parent_id=parent_id,
            name=name,
            kind=kind,
            start=self.clock() if start is None else start,
            attributes=dict(attributes or {}),
        )

    def finish(self, span: Span, *, end: float | None = None) -> Span:
        """Stamp the end time and flush the span to every sink.

        ``end`` overrides the clock for retroactively merged spans
        (see :meth:`start_span`); it is clamped so the span never ends
        before it starts.
        """
        span.end = self.clock() if end is None else max(span.start, end)
        with self._lock:
            for sink in self._sinks:
                sink.handle(span)
        return span

    @contextmanager
    def span(self, name: str, kind: str, *,
             parent: SpanContext | None = None,
             attributes: dict[str, Any] | None = None
             ) -> Iterator["Span | _NullSpan"]:
        """Context manager: open, make ambient, finish and flush.

        An exception escaping the block marks the span
        ``error:<ExceptionType>`` before flushing, then propagates.
        """
        if not self._sinks:
            yield NULL_SPAN
            return
        span = self.start_span(name, kind, parent=parent,
                               attributes=attributes)
        stack = self._stack()
        stack.append(span.context)
        try:
            yield span
        except BaseException as error:
            span.status = f"error:{type(error).__name__}"
            raise
        finally:
            stack.pop()
            self.finish(span)


#: Shared do-nothing tracer handed to untraced executors.  It never has
#: sinks subscribed (traced callers build their own tracer), so every
#: ``span()`` through it yields :data:`NULL_SPAN` immediately.
NO_OP_TRACER = Tracer()


# ---------------------------------------------------------------------------
# persistence and validation
# ---------------------------------------------------------------------------
def read_spans(path: "str | pathlib.Path", *,
               strict: bool = True) -> tuple[Span, ...]:
    """Load spans back out of a JSONL trace file, in flush order.

    With ``strict=False`` a truncated/corrupt *trailing* line (a run
    killed mid-write) is tolerated; corruption followed by valid lines
    still raises.
    """
    reader = JSONLReader(path, Span.from_dict, "trace log")
    return tuple(span for _, span in reader.read(strict=strict))


def trace_ids(spans: Iterable[Span]) -> tuple[str, ...]:
    """Distinct trace ids in first-appearance order."""
    seen: dict[str, None] = {}
    for span in spans:
        seen.setdefault(span.trace_id, None)
    return tuple(seen)


def spans_of_trace(spans: Sequence[Span],
                   trace_id: str | None = None) -> tuple[Span, ...]:
    """Select one trace's spans; defaults to the latest recorded trace
    (the trace of the last root span, since a file may append many runs).
    """
    if trace_id is None:
        for span in reversed(spans):
            if span.parent_id is None:
                trace_id = span.trace_id
                break
        else:
            if not spans:
                return ()
            trace_id = spans[-1].trace_id
    selected = tuple(s for s in spans if s.trace_id == trace_id)
    if not selected:
        raise ObservabilityError(
            f"no spans for trace {trace_id!r} "
            f"(recorded traces: {list(trace_ids(spans))})")
    return selected


def validate_spans(spans: Sequence[Span]) -> list[str]:
    """Structural problems of a span set: duplicate ids, dangling
    parents, multiple roots per trace, bad intervals, unknown kinds."""
    problems: list[str] = []
    by_trace: dict[str, list[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    for trace, members in sorted(by_trace.items()):
        ids: set[str] = set()
        for span in members:
            if span.span_id in ids:
                problems.append(
                    f"{trace}: duplicate span id {span.span_id}")
            ids.add(span.span_id)
        roots = [s for s in members if s.parent_id is None]
        if len(roots) != 1:
            problems.append(
                f"{trace}: expected exactly one root span, found "
                f"{len(roots)}")
        for span in members:
            if span.parent_id is not None and span.parent_id not in ids:
                problems.append(
                    f"{trace}: span {span.span_id} has unknown parent "
                    f"{span.parent_id}")
            if span.end < span.start:
                problems.append(
                    f"{trace}: span {span.span_id} ends before it "
                    "starts")
            if span.kind not in SPAN_KINDS:
                problems.append(
                    f"{trace}: span {span.span_id} has unknown kind "
                    f"{span.kind!r}")
    return problems


def render_span_tree(spans: Sequence[Span],
                     trace_id: str | None = None) -> str:
    """Indented tree of one trace (the ``repro trace show`` output)."""
    selected = spans_of_trace(spans, trace_id)
    if not selected:
        return "no spans recorded"
    children: dict[str | None, list[Span]] = {}
    ids = {s.span_id for s in selected}
    for span in selected:
        parent = span.parent_id if span.parent_id in ids else None
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.start, s.span_id))
    lines = [f"trace {selected[0].trace_id}: {len(selected)} spans"]

    def walk(parent: str | None, depth: int) -> None:
        for span in children.get(parent, ()):  # pre-order, by start
            lines.append("  " * depth + f"{span.render()}"
                         f"  ({span.span_id})")
            walk(span.span_id, depth + 1)

    walk(None, 1)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# worker-lane timeline (the ``repro trace timeline`` output)
# ---------------------------------------------------------------------------
def _union_length(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly-overlapping intervals."""
    total = 0.0
    edge = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, edge)
        if end > start:
            total += end - start
            edge = end
    return total


def _lane_sort_key(name: str) -> tuple[str, int]:
    """Natural sort for lane names: worker2 before worker10."""
    digits = ""
    while name and name[-1].isdigit():
        digits = name[-1] + digits
        name = name[:-1]
    return (name, int(digits) if digits else -1)


def timeline_model(spans: Sequence[Span],
                   trace_id: str | None = None) -> dict[str, Any]:
    """The lane/interval model behind the timeline, machine-readable.

    One entry per execution lane (the task spans' ``machine``
    attribute), each carrying its union busy/wait seconds and its task
    intervals **relative to the run base** (the earliest enqueue or the
    run span's start).  ``repro trace timeline --json`` emits this
    verbatim; :func:`render_timeline` paints it.
    """
    selected = spans_of_trace(spans, trace_id)
    if not selected:
        raise ObservabilityError(
            "no spans recorded"
            + (f" for trace {trace_id}" if trace_id else ""))
    tasks = [s for s in selected if s.kind == TASK_SPAN]
    run = next((s for s in selected if s.kind == RUN_SPAN), None)
    flow = (run.value("flow", "") if run is not None
            else tasks[0].value("flow", "") if tasks else "")
    model: dict[str, Any] = {"trace_id": selected[0].trace_id,
                             "flow": flow, "wall": 0.0, "lanes": []}
    if not tasks:
        return model
    starts = [s.start - float(s.value("queue_wait", 0.0) or 0.0)
              for s in tasks]
    base = min(starts + ([run.start] if run is not None else []))
    finish = max([s.end for s in tasks]
                 + ([run.end] if run is not None
                    and run.end > run.start else []))
    model["wall"] = max(finish - base, 1e-9)
    lanes: dict[str, list[Span]] = {}
    for span in tasks:
        lane = str(span.value("machine") or "?")
        lanes.setdefault(lane, []).append(span)
    for lane in sorted(lanes, key=_lane_sort_key):
        members = sorted(lanes[lane], key=lambda s: (s.start, s.span_id))
        # union, not sum: batched tasks on one lane share a dispatch
        # window and would otherwise double-count
        busy = _union_length([(s.start, s.end) for s in members])
        wait = _union_length(
            [(s.start - float(s.value("queue_wait", 0.0) or 0.0),
              s.start) for s in members
             if float(s.value("queue_wait", 0.0) or 0.0) > 0])
        model["lanes"].append({
            "lane": lane, "busy": busy, "wait": wait,
            "tasks": [{"name": s.name, "span_id": s.span_id,
                       "status": s.status,
                       "start": s.start - base, "end": s.end - base,
                       "queue_wait": float(
                           s.value("queue_wait", 0.0) or 0.0)}
                      for s in members]})
    return model


def render_timeline(spans: Sequence[Span],
                    trace_id: str | None = None, *,
                    width: int = 60) -> str:
    """ASCII Gantt of one trace, one row per execution lane.

    Lanes come from the task spans' ``machine`` attribute, so the
    rendering works for every executor that stamps one — procpool
    worker lanes and thread-scheduler machines alike.  Each row paints
    ``width`` columns of the run's wall interval: ``#`` where the lane
    executed a task, ``~`` where a task sat ready in the queue, ``!``
    where the task errored, ``.`` idle.  Per-lane busy/wait shares come
    from :func:`timeline_model`'s real union intervals, not the
    (quantized) columns.
    """
    if width < 10:
        raise ObservabilityError(
            f"timeline width must be >= 10 columns, got {width}")
    if not spans_of_trace(spans, trace_id):
        return "no spans recorded"
    model = timeline_model(spans, trace_id)
    header = f"timeline for trace {model['trace_id']}"
    if not model["lanes"]:
        return header + ": no task spans to lay out"
    if model["flow"]:
        header += f" (flow {model['flow']})"
    wall = model["wall"]

    def column(moment: float) -> int:
        fraction = moment / wall
        return min(width - 1, max(0, int(fraction * width)))

    task_count = sum(len(lane["tasks"]) for lane in model["lanes"])
    label_width = max(len(lane["lane"]) for lane in model["lanes"])
    lines = [
        header + (f": wall {wall * 1e3:.2f}ms, "
                  f"{len(model['lanes'])} lane(s), "
                  f"{task_count} task(s)"),
        "  legend: '#' executing  '~' queue wait  '!' error  '.' idle",
    ]
    for lane in model["lanes"]:
        row = ["."] * width
        for task in lane["tasks"]:
            if task["queue_wait"] > 0:
                for index in range(
                        column(task["start"] - task["queue_wait"]),
                        column(task["start"])):
                    if row[index] == ".":
                        row[index] = "~"
            mark = "#" if task["status"] == "ok" else "!"
            for index in range(column(task["start"]),
                               column(task["end"]) + 1):
                row[index] = mark
        lines.append(
            f"  {lane['lane']:<{label_width}} |{''.join(row)}| "
            f"busy {lane['busy'] / wall * 100.0:3.0f}% "
            f"wait {lane['wait'] / wall * 100.0:3.0f}% "
            f"({len(lane['tasks'])} task(s))")
    left = "0ms"
    right = f"{wall * 1e3:.2f}ms"
    gap = max(1, width + 2 - len(left) - len(right))
    lines.append(" " * (2 + label_width) + left + " " * gap + right)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# critical-path analysis
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TaskTiming:
    """One task span's place in the critical-path analysis."""

    span: Span
    slack: float
    on_path: bool


@dataclass
class CriticalPathReport:
    """Longest cost-weighted chain over one trace's executed tasks.

    ``parallelism`` is the efficiency ratio sum-of-span-time /
    wall-time: 1.0 means perfectly serial, N means N-wide overlap.
    """

    trace_id: str
    flow: str
    wall_time: float
    busy_time: float
    critical_length: float
    parallelism: float
    tasks: tuple[TaskTiming, ...]
    path: tuple[Span, ...]

    def render(self) -> str:
        share = (self.critical_length / self.wall_time * 100.0
                 if self.wall_time else 0.0)
        lines = [
            f"critical path for trace {self.trace_id}"
            + (f" (flow {self.flow})" if self.flow else ""),
            f"  wall {self.wall_time * 1e3:.2f}ms  "
            f"busy {self.busy_time * 1e3:.2f}ms  "
            f"parallelism {self.parallelism:.2f}x",
            f"  longest chain: {len(self.path)} tasks, "
            f"{self.critical_length * 1e3:.2f}ms ({share:.0f}% of wall)",
        ]
        for position, span in enumerate(self.path, start=1):
            tool = span.value("tool_type") or "?"
            lines.append(
                f"    {position}. {span.name:<40} tool={tool:<14} "
                f"{span.duration * 1e3:8.2f}ms")
        off_path = sorted((t for t in self.tasks if not t.on_path),
                          key=lambda t: -t.slack)
        if off_path:
            lines.append("  off-path tasks by slack:")
            for timing in off_path:
                tool = timing.span.value("tool_type") or "?"
                lines.append(
                    f"    {timing.span.name:<43} tool={tool:<14} "
                    f"{timing.span.duration * 1e3:8.2f}ms  "
                    f"slack {timing.slack * 1e3:.2f}ms")
        return "\n".join(lines)


def critical_path(spans: Sequence[Span],
                  trace_id: str | None = None) -> CriticalPathReport:
    """Analyze one trace: longest dependency chain, slack, efficiency.

    Dependencies come from the task spans' ``outputs``/``inputs`` node
    ids (the executed task graph); weights are execute durations, so a
    cache-hit task contributes its (near-zero) lookup time and never
    extends the path beyond what it actually cost.
    """
    selected = spans_of_trace(spans, trace_id)
    if not selected:
        raise ObservabilityError("no spans recorded")
    tasks = [s for s in selected if s.kind == TASK_SPAN]
    run = next((s for s in selected if s.kind == RUN_SPAN), None)
    if run is not None and run.duration > 0:
        wall = run.duration
    else:
        wall = (max(s.end for s in selected)
                - min(s.start for s in selected))
    busy = sum(s.duration for s in tasks)
    flow = (run.value("flow", "") if run is not None
            else (tasks[0].value("flow", "") if tasks else ""))

    preds, succs = dependencies(
        [span.value("outputs", ()) or () for span in tasks],
        [span.value("inputs", ()) or () for span in tasks])
    try:
        order = topological(range(len(tasks)), preds.__getitem__)
    except CycleError:
        raise ObservabilityError(
            "task spans form a dependency cycle; trace is inconsistent"
        ) from None
    duration = [span.duration for span in tasks]
    # up: the heaviest chain ending at a task; down: starting at it
    up = longest(order, preds.__getitem__, duration.__getitem__)
    down = longest(reversed(order), succs.__getitem__,
                   duration.__getitem__)

    critical = max((length for length, _ in up.values()), default=0.0)
    path: list[Span] = []
    if tasks:
        cursor: int | None = max(range(len(tasks)),
                                 key=lambda i: (up[i][0], -tasks[i].start))
        while cursor is not None:
            path.append(tasks[cursor])
            cursor = up[cursor][1]
        path.reverse()
    on_path = {s.span_id for s in path}
    timings = tuple(
        TaskTiming(span,
                   slack=max(0.0, critical - (up[i][0] + down[i][0]
                                              - span.duration)),
                   on_path=span.span_id in on_path)
        for i, span in enumerate(tasks))
    return CriticalPathReport(
        trace_id=selected[0].trace_id,
        flow=flow,
        wall_time=wall,
        busy_time=busy,
        critical_length=critical,
        parallelism=(busy / wall if wall else 1.0),
        tasks=timings,
        path=tuple(path),
    )


# ---------------------------------------------------------------------------
# Chrome trace-event / Perfetto export
# ---------------------------------------------------------------------------
def export_chrome(spans: Sequence[Span],
                  trace_id: str | None = None) -> dict[str, Any]:
    """One trace as Chrome trace-event JSON (loads in Perfetto).

    Every span becomes one complete (``ph: "X"``) event; lanes (tids)
    follow the ``machine`` attribute so parallel execution renders as
    side-by-side tracks.
    """
    selected = spans_of_trace(spans, trace_id)
    if not selected:
        raise ObservabilityError("no spans to export")
    base = min(s.start for s in selected)
    by_id = {s.span_id: s for s in selected}
    lane_cache: dict[str, str] = {}

    def lane_of(span: Span) -> str:
        cached = lane_cache.get(span.span_id)
        if cached is not None:
            return cached
        machine = span.value("machine")
        if machine:
            lane = str(machine)
        elif span.parent_id in by_id:
            lane = lane_of(by_id[span.parent_id])
        else:
            lane = "flow"
        lane_cache[span.span_id] = lane
        return lane

    lanes: dict[str, int] = {}
    for span in sorted(selected, key=lambda s: (s.start, s.span_id)):
        lanes.setdefault(lane_of(span), len(lanes))
    events: list[dict[str, Any]] = [{
        "ph": "M", "pid": 1, "tid": 0, "name": "process_name",
        "args": {"name": f"repro trace {selected[0].trace_id}"},
    }]
    for lane, tid in sorted(lanes.items(), key=lambda kv: kv[1]):
        events.append({"ph": "M", "pid": 1, "tid": tid,
                       "name": "thread_name", "args": {"name": lane}})
    for span in sorted(selected, key=lambda s: (s.start, s.span_id)):
        events.append({
            "name": span.name,
            "cat": span.kind,
            "ph": "X",
            "ts": round((span.start - base) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": 1,
            "tid": lanes[lane_of(span)],
            "args": {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "status": span.status,
                **span.attributes,
            },
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_id": selected[0].trace_id,
            "schema_version": TRACE_SCHEMA_VERSION,
        },
    }


def validate_chrome_trace(payload: dict[str, Any]) -> list[str]:
    """Minimal Chrome trace-event schema check (the CI smoke gate).

    Verifies the event list shape, non-negative timestamps/durations on
    complete events, and that any ``B``/``E`` duration events are
    properly matched per (pid, tid).
    """
    problems: list[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    open_stacks: dict[tuple[Any, Any], list[str]] = {}
    for position, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event #{position} is not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "B", "E", "M", "I", "C"):
            problems.append(
                f"event #{position} has unsupported phase {phase!r}")
            continue
        if phase == "M":
            continue
        if not isinstance(event.get("ts"), (int, float)) \
                or event["ts"] < 0:
            problems.append(f"event #{position} has invalid ts")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append(f"event #{position} has invalid dur")
            if not event.get("name"):
                problems.append(f"event #{position} has no name")
        elif phase == "B":
            open_stacks.setdefault(
                (event.get("pid"), event.get("tid")), []).append(
                    str(event.get("name")))
        elif phase == "E":
            stack = open_stacks.get((event.get("pid"), event.get("tid")))
            if not stack:
                problems.append(
                    f"event #{position}: E without matching B")
            else:
                stack.pop()
    for (pid, tid), stack in sorted(open_stacks.items(),
                                    key=lambda kv: str(kv[0])):
        for name in stack:
            problems.append(
                f"unclosed B event {name!r} on pid={pid} tid={tid}")
    return problems
