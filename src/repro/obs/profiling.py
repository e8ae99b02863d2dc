"""Continuous profiling: sampled stacks, memory peaks, query timing.

Where the tracer answers *when* a tool ran, this module answers *where
the time went inside it*.  Three cooperating pieces:

* :class:`SamplingProfiler` — a background thread sweeps
  ``sys._current_frames()`` on a fixed interval and folds each running
  tool body's stack into collapsed-stack (flamegraph) form, keyed by
  the tool type the executor registered for that thread.  Executors
  wrap every tool body in :meth:`SamplingProfiler.invocation`, which
  also measures wall busy time and (optionally) the ``tracemalloc``
  allocation high-water of the invocation.  Sampling is deterministic
  to test: :meth:`sample_once` does one sweep synchronously and the
  clock is injectable.
* :class:`ProfileAggregate` — the mergeable result.  Worker processes
  profile in-process and each batch reply carries what they sampled
  since the last one (:meth:`SamplingProfiler.take`); the coordinator
  absorbs every such delta into one run-wide aggregate as the reply
  arrives.  Per-tool *self time* is ``min(samples x interval,
  measured busy)`` — and the procpool coordinator additionally clamps
  busy time to the fitted worker-side tool-body phase durations — so
  self time can never exceed the tool-span durations the trace
  recorded (the containment property CI checks).
* :class:`QueryRecorder` — per-statement timers for the history
  backends: fingerprinted counts/totals plus a threshold-gated JSONL
  slow-query log.  The sqlite backend routes every statement through
  it when attached; the JSON backend times its scan paths.

Memory tracking is opt-in (``track_memory``): ``tracemalloc`` slows an
allocation-heavy flow ~4x (measured on the Fig. 6 benchmark), which
would swamp the <7% profiling-overhead budget the bench gate enforces,
so ``repro run --profile`` keeps it off unless ``--profile-memory`` is
also given.

``repro run --profile`` wires all three up and appends one
``profile.v1`` record per run to the environment's ``profiles.jsonl``;
``repro profile show|flamegraph|queries|export`` reads them back.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from types import FrameType
from typing import Any, Callable, Iterator, Mapping

from ..errors import ObservabilityError
from .events import check_schema_version
from .ledger import find_run, render_json
from .sinks import JSONLReader, append_jsonl

#: Default wall-clock spacing between stack sweeps (5 ms).
DEFAULT_PROFILE_INTERVAL = 0.005

#: Statements at or above this duration land in the slow-query log.
DEFAULT_SLOW_QUERY_THRESHOLD = 0.010

#: Stack frames beyond this depth fold into a leading "..." frame.
MAX_STACK_DEPTH = 60

#: Schema tag stamped into every ``profiles.jsonl`` record.
PROFILE_SCHEMA_VERSION = "profile.v1"

#: Synthetic frame for tools invoked but never caught by the sampler:
#: a flamegraph still shows every tool type that ran, weighted by its
#: invocation count, even when each call finished inside one interval.
UNSAMPLED_FRAME = "(faster-than-interval)"


def statement_fingerprint(statement: str) -> str:
    """Stable 12-hex-digit id of a whitespace-normalized statement."""
    normalized = " ".join(statement.split())
    digest = hashlib.sha256(normalized.encode("utf-8")).hexdigest()
    return digest[:12]


def _frame_label(frame: FrameType) -> str:
    """``module:function``, kept free of the collapsed-format
    separators (semicolons and spaces)."""
    code = frame.f_code
    stem = pathlib.PurePath(code.co_filename).stem or "?"
    label = f"{stem}:{code.co_name}"
    return label.replace(";", "_").replace(" ", "_")


def collapse_frames(frame: FrameType | None) -> str:
    """Render a frame chain as one collapsed-stack path, root first."""
    labels: list[str] = []
    while frame is not None and len(labels) < MAX_STACK_DEPTH:
        labels.append(_frame_label(frame))
        frame = frame.f_back
    truncated = frame is not None
    labels.reverse()
    if truncated:
        labels.insert(0, "...")
    return ";".join(labels)


class ProfileAggregate:
    """Merged profile of one run: stacks, busy time, memory peaks.

    Not thread-safe by itself — :class:`SamplingProfiler` guards every
    mutation with its own lock, worker payloads included.
    """

    def __init__(self,
                 interval: float = DEFAULT_PROFILE_INTERVAL) -> None:
        self.interval = interval
        self.samples = 0
        self._stacks: dict[str, dict[str, int]] = {}
        self._busy: dict[str, float] = {}
        self._calls: dict[str, int] = {}
        self._samples: dict[str, int] = {}
        self._mem_peak: dict[str, int] = {}

    # -- recording -----------------------------------------------------
    def add_stack(self, tool_type: str, stack: str,
                  count: int = 1) -> None:
        folded = self._stacks.setdefault(tool_type, {})
        folded[stack] = folded.get(stack, 0) + count
        self._samples[tool_type] = \
            self._samples.get(tool_type, 0) + count
        self.samples += count

    def add_invocation(self, tool_type: str, busy: float,
                       mem_peak: int = 0) -> None:
        """One completed tool body: measured wall time + alloc peak."""
        self._busy[tool_type] = self._busy.get(tool_type, 0.0) + busy
        self._calls[tool_type] = self._calls.get(tool_type, 0) + 1
        if mem_peak > self._mem_peak.get(tool_type, 0):
            self._mem_peak[tool_type] = mem_peak

    def absorb(self, payload: Mapping[str, Any]) -> None:
        """Fold a ``to_dict()`` payload (a worker reply's samples).

        Per-tool sample counts are re-derived from the stacks so a
        payload is never double-counted; busy/calls sum, peaks max.
        """
        for tool_type, folded in payload.get("stacks", {}).items():
            for stack, count in folded.items():
                self.add_stack(tool_type, stack, int(count))
        for tool_type, stats in payload.get("tools", {}).items():
            busy = float(stats.get("busy_s", 0.0))
            calls = int(stats.get("calls", 0))
            peak = int(stats.get("mem_peak", 0))
            if busy:
                self._busy[tool_type] = \
                    self._busy.get(tool_type, 0.0) + busy
            if calls:
                self._calls[tool_type] = \
                    self._calls.get(tool_type, 0) + calls
            if peak > self._mem_peak.get(tool_type, 0):
                self._mem_peak[tool_type] = peak

    def clamp_to(self, caps: Mapping[str, float]) -> None:
        """Cap per-tool busy time (containment vs. traced spans).

        The procpool coordinator calls this with the summed *fitted*
        worker-side tool-body phase durations: worker clocks are
        skew-corrected and clamped into the observed dispatch window,
        so capping busy time to them guarantees self time stays inside
        the merged tool spans.
        """
        for tool_type, cap in caps.items():
            if tool_type in self._busy or tool_type in self._samples:
                self._busy[tool_type] = min(
                    self._busy.get(tool_type, cap), cap)

    # -- reading -------------------------------------------------------
    def tool_types(self) -> tuple[str, ...]:
        seen = set(self._stacks) | set(self._busy) | set(self._calls)
        return tuple(sorted(seen))

    def busy_time(self, tool_type: str) -> float:
        return self._busy.get(tool_type, 0.0)

    def sample_count(self, tool_type: str) -> int:
        return self._samples.get(tool_type, 0)

    def self_time(self, tool_type: str) -> float:
        """``min(samples x interval, measured busy)`` — the sampled
        estimate, bounded by the measured invocation time so it can
        never exceed what the trace recorded for the tool."""
        sampled = self._samples.get(tool_type, 0) * self.interval
        if tool_type in self._busy:
            return min(sampled, self._busy[tool_type])
        return sampled

    def collapsed(self) -> str:
        """Flamegraph collapsed-stack lines, tool type as root frame.

        Tools that ran but were never swept (every call finished
        between samples) still appear, under a synthetic
        ``(faster-than-interval)`` frame weighted by call count, so
        coverage checks see every tool type that executed.
        """
        lines: list[str] = []
        for tool_type in self.tool_types():
            folded = self._stacks.get(tool_type, {})
            for stack, count in sorted(folded.items()):
                lines.append(f"{tool_type};{stack} {count}")
            if not folded and self._calls.get(tool_type, 0):
                lines.append(f"{tool_type};{UNSAMPLED_FRAME} "
                             f"{self._calls[tool_type]}")
        return "\n".join(lines)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        tools: dict[str, dict[str, Any]] = {}
        for tool_type in self.tool_types():
            tools[tool_type] = {
                "busy_s": self._busy.get(tool_type, 0.0),
                "calls": self._calls.get(tool_type, 0),
                "samples": self._samples.get(tool_type, 0),
                "mem_peak": self._mem_peak.get(tool_type, 0),
            }
        return {
            "interval": self.interval,
            "samples": self.samples,
            "stacks": {tool_type: dict(folded)
                       for tool_type, folded
                       in sorted(self._stacks.items())},
            "tools": tools,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]
                  ) -> "ProfileAggregate":
        aggregate = cls(float(
            payload.get("interval", DEFAULT_PROFILE_INTERVAL)))
        aggregate.absorb(payload)
        return aggregate

    def summary(self) -> dict[str, Any]:
        """The compact per-tool table the run ledger records."""
        tools: dict[str, dict[str, Any]] = {}
        for tool_type in self.tool_types():
            tools[tool_type] = {
                "self_s": round(self.self_time(tool_type), 6),
                "busy_s": round(self._busy.get(tool_type, 0.0), 6),
                "calls": self._calls.get(tool_type, 0),
                "samples": self._samples.get(tool_type, 0),
                "mem_peak_kb":
                    (self._mem_peak.get(tool_type, 0) + 1023) // 1024,
            }
        return {
            "interval_ms": round(self.interval * 1e3, 3),
            "samples": self.samples,
            "tools": tools,
        }


class SamplingProfiler:
    """Deterministic sampling profiler keyed by running tool type.

    Executors register the executing thread around every tool body via
    :meth:`invocation` (or the :meth:`run` shorthand); only registered
    threads are swept, so framework time never pollutes the profile.
    ``start()`` arms the sampler, and the first bracketed body spawns
    its daemon thread and, with ``track_memory``, starts ``tracemalloc``:
    a process that brackets none (the procpool coordinator) stays
    single-threaded and untraced.  Tests instead call
    :meth:`sample_once` with scripted thread states and a scripted
    clock.
    """

    def __init__(self, interval: float = DEFAULT_PROFILE_INTERVAL, *,
                 clock: Callable[[], float] = time.perf_counter,
                 track_memory: bool = False) -> None:
        if interval <= 0:
            raise ObservabilityError(
                f"profiling interval must be > 0, got {interval}")
        self.interval = interval
        self.clock = clock
        self.track_memory = track_memory
        self.aggregate = ProfileAggregate(interval)
        self.query_recorder: QueryRecorder | None = None
        self._lock = threading.Lock()
        self._active: dict[int, str] = {}
        self._armed = False
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._started_tracemalloc = False

    # -- invocation bracketing -----------------------------------------
    @contextmanager
    def invocation(self, tool_type: str) -> Iterator[None]:
        """Register the calling thread as running ``tool_type``."""
        ident = threading.get_ident()
        with self._lock:
            self._active[ident] = tool_type
            if self._armed and self._thread is None:
                self._thread = threading.Thread(
                    target=self._sample_loop, name="repro-profiler",
                    daemon=True)
                self._thread.start()
                if self.track_memory and not tracemalloc.is_tracing():
                    # nframe=1 is the cheapest tracemalloc mode; still
                    # ~4x on allocation-heavy tools, hence the opt-in
                    tracemalloc.start(1)
                    self._started_tracemalloc = True
        tracing = self.track_memory and tracemalloc.is_tracing()
        if tracing:
            tracemalloc.reset_peak()
        begun = self.clock()
        try:
            yield
        finally:
            busy = self.clock() - begun
            peak = (tracemalloc.get_traced_memory()[1]
                    if tracing else 0)
            with self._lock:
                self._active.pop(ident, None)
                self.aggregate.add_invocation(tool_type, busy, peak)

    def run(self, tool_type: str, fn: Callable[[], Any]) -> Any:
        with self.invocation(tool_type):
            return fn()

    # -- sampling ------------------------------------------------------
    def sample_once(self) -> int:
        """One synchronous sweep; returns the stacks taken."""
        with self._lock:
            active = dict(self._active)
        if not active:
            return 0
        frames = sys._current_frames()
        collected = [(tool_type, collapse_frames(frames.get(ident)))
                     for ident, tool_type in active.items()
                     if frames.get(ident) is not None]
        del frames
        with self._lock:
            for tool_type, stack in collected:
                self.aggregate.add_stack(tool_type, stack)
        return len(collected)

    def _sample_loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    def start(self) -> None:
        """Arm the sampler; its thread, and memory tracing, start with
        the first body."""
        self._stop.clear()
        self._armed = True

    def stop(self) -> None:
        with self._lock:
            self._armed = False
            thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=2.0)
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracemalloc = False

    # -- merging / reading ---------------------------------------------
    def absorb(self, payload: Mapping[str, Any]) -> None:
        with self._lock:
            self.aggregate.absorb(payload)

    def clamp_to(self, caps: Mapping[str, float]) -> None:
        with self._lock:
            self.aggregate.clamp_to(caps)

    def take(self) -> dict[str, Any]:
        """The samples taken since the last take, which it forgets: a
        worker's replies carry each sample once."""
        with self._lock:
            taken, self.aggregate = \
                self.aggregate, ProfileAggregate(self.interval)
        return taken.to_dict()

    def collapsed(self) -> str:
        with self._lock:
            return self.aggregate.collapsed()

    def summary(self) -> dict[str, Any]:
        with self._lock:
            summary = self.aggregate.summary()
        if self.query_recorder is not None:
            query = self.query_recorder.summary()
            if query:
                summary["query"] = query
        return summary


class QueryRecorder:
    """Thread-safe per-statement query timers with a slow-query log.

    Every recorded statement is keyed by its fingerprint; statements
    at or above ``slow_threshold`` seconds are additionally appended
    to ``slow_log`` as one JSON object per line (fingerprint, the
    normalized statement, duration, row count).  Log-file errors are
    swallowed like the ledger's: observability must never break the
    flow being observed.
    """

    def __init__(self, *,
                 slow_threshold: float = DEFAULT_SLOW_QUERY_THRESHOLD,
                 slow_log: str | pathlib.Path | None = None,
                 backend: str = "",
                 clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.slow_threshold = slow_threshold
        self.slow_log = (pathlib.Path(slow_log)
                         if slow_log is not None else None)
        self.backend = backend
        self.clock = clock
        self._lock = threading.Lock()
        self._statements: dict[str, dict[str, Any]] = {}
        self._slow = 0

    def record(self, statement: str, seconds: float,
               rows: int = 0) -> None:
        fingerprint = statement_fingerprint(statement)
        with self._lock:
            entry = self._statements.get(fingerprint)
            if entry is None:
                entry = {"statement": " ".join(statement.split()),
                         "count": 0, "total_s": 0.0, "max_s": 0.0,
                         "rows": 0}
                self._statements[fingerprint] = entry
            entry["count"] += 1
            entry["total_s"] += seconds
            entry["max_s"] = max(entry["max_s"], seconds)
            entry["rows"] += rows
            slow = seconds >= self.slow_threshold
            if slow:
                self._slow += 1
        if slow and self.slow_log is not None:
            self._append_slow(fingerprint, statement, seconds, rows)

    @contextmanager
    def timed(self, statement: str) -> Iterator[list[int]]:
        """Time a block; mutate the yielded ``[rows]`` cell to report
        the row count the block produced."""
        cell = [0]
        begun = self.clock()
        try:
            yield cell
        finally:
            self.record(statement, self.clock() - begun, cell[0])

    def _append_slow(self, fingerprint: str, statement: str,
                     seconds: float, rows: int) -> None:
        line = render_json({
            "ts": time.time(),
            "backend": self.backend,
            "fingerprint": fingerprint,
            "statement": " ".join(statement.split()),
            "seconds": round(seconds, 6),
            "rows": rows,
        })
        try:
            append_jsonl(self.slow_log, line)
        except OSError:
            pass

    def snapshot(self) -> dict[str, dict[str, Any]]:
        with self._lock:
            return {fingerprint: dict(entry)
                    for fingerprint, entry
                    in self._statements.items()}

    def summary(self) -> dict[str, Any]:
        """Roll-up for the ledger ({} when nothing was recorded)."""
        with self._lock:
            if not self._statements:
                return {}
            count = sum(e["count"]
                        for e in self._statements.values())
            total = sum(e["total_s"]
                        for e in self._statements.values())
            worst = max(e["max_s"]
                        for e in self._statements.values())
            return {
                "backend": self.backend,
                "statements": len(self._statements),
                "count": count,
                "total_s": round(total, 6),
                "max_s": round(worst, 6),
                "slow": self._slow,
            }


# ---------------------------------------------------------------------------
# the profiles.jsonl log
# ---------------------------------------------------------------------------
def profile_record(aggregate: ProfileAggregate, *, run_id: str = "",
                   trace_id: str = "", flow: str = "",
                   executor: str = "",
                   query: Mapping[str, Any] | None = None,
                   timestamp: float | None = None) -> dict[str, Any]:
    """One ``profile.v1`` record: the aggregate payload plus the run
    identity it belongs to (join keys into ledger and trace)."""
    record: dict[str, Any] = {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "run_id": run_id,
        "trace_id": trace_id,
        "flow": flow,
        "executor": executor,
        "recorded_at": (timestamp if timestamp is not None
                        else time.time()),
    }
    record.update(aggregate.to_dict())
    if query:
        record["query"] = dict(query)
    return record


def append_profile(path: str | pathlib.Path,
                   record: Mapping[str, Any]) -> None:
    """Append one profile record to a JSONL log (canonical form)."""
    append_jsonl(path, render_json(dict(record)))


def _checked_profile(record: dict[str, Any]) -> dict[str, Any]:
    """A profile record of this build's schema whose aggregate loads
    (else the reader names its line)."""
    check_schema_version(record, PROFILE_SCHEMA_VERSION, "profile")
    ProfileAggregate.from_dict(record)
    return record


def read_profiles(path: str | pathlib.Path
                  ) -> tuple[dict[str, Any], ...]:
    """All profile records in the log, oldest first (lenient: a
    truncated trailing line is tolerated, like every other log)."""
    target = pathlib.Path(path)
    if not target.exists():
        return ()
    reader = JSONLReader(target, _checked_profile, "profile log")
    return tuple(record for _, record in reader.read(strict=False))


#: The fields of a slow-query record, as :class:`QueryRecorder`
#: writes them, with their JSON types.
SLOW_QUERY_FIELDS: dict[str, type | tuple[type, ...]] = {
    "ts": (int, float), "backend": str, "fingerprint": str,
    "statement": str, "seconds": (int, float), "rows": int}


def _checked_slow_query(record: dict[str, Any]) -> dict[str, Any]:
    """A slow-query record of the recorder's shape (else the reader
    names its line)."""
    for key, kind in SLOW_QUERY_FIELDS.items():
        if not isinstance(record.get(key), kind):
            raise ObservabilityError(
                f"slow-query field {key!r} is {record.get(key)!r}")
    return record


def read_slow_queries(path: str | pathlib.Path
                      ) -> tuple[dict[str, Any], ...]:
    """All slow-query records in the log, oldest first (lenient like
    :func:`read_profiles`: only a torn last line is forgiven)."""
    target = pathlib.Path(path)
    if not target.exists():
        return ()
    reader = JSONLReader(target, _checked_slow_query, "slow-query log")
    return tuple(record for _, record in reader.read(strict=False))


def find_profile(records: "tuple[dict[str, Any], ...]",
                 run_id: str | None = None) -> dict[str, Any]:
    """The latest record, or the one of a run id or unique prefix."""
    if not records:
        raise ObservabilityError("no profiles recorded")
    if not run_id:
        return records[-1]
    return find_run(records, run_id,
                    lambda record: str(record.get("run_id", "")),
                    "the profile log")


def render_profile(record: Mapping[str, Any]) -> str:
    """Human-readable summary of one profile record."""
    aggregate = ProfileAggregate.from_dict(record)
    tools = aggregate.to_dict()["tools"]
    header = f"profile of run {record.get('run_id') or '?'}"
    flow = record.get("flow", "")
    executor = record.get("executor", "")
    if flow or executor:
        parts = [p for p in (f"flow {flow}" if flow else "",
                             f"{executor} executor"
                             if executor else "") if p]
        header += f" ({', '.join(parts)})"
    header += (f": {aggregate.samples} samples "
               f"@{aggregate.interval * 1e3:.1f}ms")
    lines = [header]
    for tool_type, stats in tools.items():
        line = (f"  {tool_type}: self "
                f"{aggregate.self_time(tool_type) * 1e3:.2f}ms, busy "
                f"{stats['busy_s'] * 1e3:.2f}ms, "
                f"{stats['calls']} call(s), "
                f"{stats['samples']} sample(s)")
        if stats["mem_peak"]:
            line += f", peak {(stats['mem_peak'] + 1023) // 1024}kB"
        lines.append(line)
    query = record.get("query") or {}
    if query:
        lines.append(
            f"  queries ({query.get('backend') or '?'}): "
            f"{query.get('statements', 0)} statement(s), "
            f"{query.get('count', 0)} execution(s), total "
            f"{query.get('total_s', 0.0) * 1e3:.2f}ms, max "
            f"{query.get('max_s', 0.0) * 1e3:.2f}ms, "
            f"{query.get('slow', 0)} slow")
    return "\n".join(lines)


__all__ = [
    "DEFAULT_PROFILE_INTERVAL",
    "DEFAULT_SLOW_QUERY_THRESHOLD",
    "MAX_STACK_DEPTH",
    "PROFILE_SCHEMA_VERSION",
    "ProfileAggregate",
    "QueryRecorder",
    "SamplingProfiler",
    "UNSAMPLED_FRAME",
    "append_profile",
    "collapse_frames",
    "find_profile",
    "profile_record",
    "read_profiles",
    "read_slow_queries",
    "render_profile",
    "statement_fingerprint",
]
