"""Structured execution events and the bus that carries them.

The paper records *what* was created (derivation records); production
design management also needs *how* execution unfolded — scheduling
decisions, tool durations, parallel lanes, failures.  Every interesting
moment in the execution stack is an :class:`Event`: a small, immutable,
JSON-serializable record with a schema version, a monotonically
increasing sequence number, and the identifiers (flow, node, tool type,
invocation, derivation ids) needed to join it back onto the history
database.

The :class:`EventBus` is deliberately boring: sinks subscribe, emitters
call :meth:`EventBus.emit`.  A bus with no sinks short-circuits before
building the event, so uninstrumented callers pay one attribute load and
one truth test per emission point.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import ObservabilityError

SCHEMA_VERSION = "obs.v1"

# ---------------------------------------------------------------------------
# event types
# ---------------------------------------------------------------------------
FLOW_STARTED = "flow_started"
NODE_READY = "node_ready"
TOOL_INVOKED = "tool_invoked"
TOOL_FINISHED = "tool_finished"
INSTANCE_CREATED = "instance_created"
COMPOSITION_RUN = "composition_run"
FLOW_FINISHED = "flow_finished"
EXECUTION_FAILED = "execution_failed"
LANE_ASSIGNED = "lane_assigned"
CACHE_HIT = "cache_hit"
CACHE_MISS = "cache_miss"
TOOL_RETRIED = "tool_retried"
TOOL_TIMED_OUT = "tool_timed_out"
TOOL_QUARANTINED = "tool_quarantined"
#: End-of-run summary for one worker process (procpool): batches,
#: steals, respawns, busy/idle split — ``machine`` names the worker.
WORKER_STATS = "worker_stats"

EVENT_TYPES = frozenset({
    FLOW_STARTED,
    NODE_READY,
    TOOL_INVOKED,
    TOOL_FINISHED,
    INSTANCE_CREATED,
    COMPOSITION_RUN,
    FLOW_FINISHED,
    EXECUTION_FAILED,
    LANE_ASSIGNED,
    CACHE_HIT,
    CACHE_MISS,
    TOOL_RETRIED,
    TOOL_TIMED_OUT,
    TOOL_QUARANTINED,
    WORKER_STATS,
})

def check_schema_version(spec: dict[str, Any], current: str, kind: str) -> str:
    """The record's schema version (``current`` when unstamped); a
    different major version than this build writes is rejected."""
    version = spec.get("schema_version", current)
    if version.partition(".")[0] != current.partition(".")[0]:
        raise ObservabilityError(
            f"unsupported {kind} schema version {version!r} "
            f"(this build reads {current!r})")
    return version


#: Tool-type key used for composition (tool-less) invocations, matching
#: the key :class:`~repro.execution.scheduler.DurationModel` uses.
COMPOSE_TOOL = "@compose"


@dataclass(frozen=True)
class Event:
    """One structured observation of flow execution.

    ``payload`` is stored as a sorted tuple of pairs so events stay
    hashable and compare exactly across a JSONL round-trip.
    """

    seq: int
    event_type: str
    timestamp: float
    flow: str = ""
    node: str = ""
    tool_type: str = ""
    invocation_id: str = ""
    machine: str = ""
    duration: float = 0.0
    payload: tuple[tuple[str, Any], ...] = ()
    schema_version: str = SCHEMA_VERSION

    def value(self, key: str, default: Any = None) -> Any:
        """Look up one payload entry."""
        for name, item in self.payload:
            if name == key:
                return item
        return default

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "seq": self.seq,
            "event_type": self.event_type,
            "timestamp": self.timestamp,
            "flow": self.flow,
            "node": self.node,
            "tool_type": self.tool_type,
            "invocation_id": self.invocation_id,
            "machine": self.machine,
            "duration": self.duration,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_dict(cls, spec: dict[str, Any]) -> "Event":
        version = check_schema_version(spec, SCHEMA_VERSION, "event")
        payload = spec.get("payload", {})
        return cls(
            seq=int(spec["seq"]),
            event_type=spec["event_type"],
            timestamp=float(spec["timestamp"]),
            flow=spec.get("flow", ""),
            node=spec.get("node", ""),
            tool_type=spec.get("tool_type", ""),
            invocation_id=spec.get("invocation_id", ""),
            machine=spec.get("machine", ""),
            duration=float(spec.get("duration", 0.0)),
            payload=tuple(sorted(payload.items())),
            schema_version=version,
        )

    def render(self) -> str:
        """One human-readable line (the ``repro events`` format)."""
        parts = [f"{self.seq:>6}", f"{self.event_type:<17}"]
        if self.flow:
            parts.append(f"flow={self.flow}")
        if self.node:
            parts.append(f"node={self.node}")
        if self.tool_type:
            parts.append(f"tool={self.tool_type}")
        if self.invocation_id:
            parts.append(f"run={self.invocation_id}")
        if self.machine:
            parts.append(f"on={self.machine}")
        if self.duration:
            parts.append(f"dur={self.duration * 1e3:.2f}ms")
        for key, item in self.payload:
            parts.append(f"{key}={item}")
        return " ".join(parts)


class SinkFanout:
    """The sinks one emitter dispatches to, under one lock.

    :class:`EventBus` and :class:`~repro.obs.tracing.Tracer` share it.
    Emitters test :attr:`enabled` (or ``_sinks`` directly) before they
    build a record, so with no sinks subscribed each emission point
    costs one truth test.
    """

    def __init__(self) -> None:
        self._sinks: list[Any] = []
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        """True when at least one sink will observe emissions."""
        return bool(self._sinks)

    def subscribe(self, sink: Any) -> Any:
        """Attach a sink (anything with ``handle(record)``)."""
        if not callable(getattr(sink, "handle", None)):
            raise ObservabilityError(
                f"sink {sink!r} has no handle(record) method")
        with self._lock:
            if sink not in self._sinks:
                self._sinks.append(sink)
        return sink

    def unsubscribe(self, sink: Any) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    def close(self) -> None:
        """Close every sink that supports closing."""
        with self._lock:
            for sink in self._sinks:
                close = getattr(sink, "close", None)
                if callable(close):
                    close()


class EventBus(SinkFanout):
    """Dispatches events to subscribed sinks, in emission order.

    Thread-safe: sequence allocation and sink dispatch happen under one
    lock, so the ``seq`` order equals the order sinks observe even when
    parallel lanes emit concurrently.  With no sinks subscribed,
    :meth:`emit` returns immediately (the default for uninstrumented
    executors).
    """

    def __init__(self, clock: Callable[[], float] = time.time) -> None:
        super().__init__()
        self.clock = clock
        self._seq = itertools.count(1)

    def emit(self, event_type: str, *, flow: str = "", node: str = "",
             tool_type: str = "", invocation_id: str = "",
             machine: str = "", duration: float = 0.0,
             payload: dict[str, Any] | None = None) -> Event | None:
        """Build and dispatch one event (no-op without sinks)."""
        if not self._sinks:
            return None
        if event_type not in EVENT_TYPES:
            raise ObservabilityError(
                f"unknown event type {event_type!r}")
        with self._lock:
            event = Event(
                seq=next(self._seq),
                event_type=event_type,
                timestamp=self.clock(),
                flow=flow,
                node=node,
                tool_type=tool_type,
                invocation_id=invocation_id,
                machine=machine,
                duration=duration,
                payload=tuple(sorted((payload or {}).items())),
            )
            for sink in self._sinks:
                sink.handle(event)
        return event


#: Shared do-nothing bus handed to uninstrumented executors.  It never
#: has sinks subscribed (instrumented callers build their own bus), so
#: every ``emit`` through it is a cheap early return.
NO_OP_BUS = EventBus()
