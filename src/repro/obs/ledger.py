"""The run ledger: one compact record per executed flow, across runs.

The paper's claim is that one small derivation record per instance
yields a complete design-history database; events (PR 1) and spans
(PR 3) extend that to *how a single run behaved*.  The ledger adds the
longitudinal axis production flow managers need: at the end of every
executed flow one :class:`RunRecord` — run/trace identifiers, executor
kind, cache policy, per-tool-type duration and queue-wait stats, cache
and error counts — is appended to ``ledger.jsonl`` in the environment
directory.  Across runs those records are the time series that
:mod:`repro.obs.health` mines for drift and regressions, and that the
Prometheus exporter turns into ``repro_run_*`` series.

Records are written append-only through the same JSONL conventions as
the event log (schema-versioned lines, corrupt-tail tolerance on read),
so a missing or truncated ledger never breaks an environment — older
environments simply have no longitudinal history yet.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, TypeVar

from ..errors import ObservabilityError
from .events import COMPOSE_TOOL, check_schema_version
from .metrics import (PrometheusSample, TimerStats,
                      render_prometheus_families, timer_stats_of)
from .sinks import JSONLReader, append_jsonl
from .workers import WorkerRunStats, worker_utilization

LEDGER_SCHEMA_VERSION = "ledger.v1"

#: Executor kinds stamped into run records.
SEQUENTIAL_EXECUTOR = "sequential"
PARALLEL_EXECUTOR = "parallel"
SCHEDULED_EXECUTOR = "scheduled"
PROCESS_EXECUTOR = "procpool"


# ---------------------------------------------------------------------------
# shared JSON serializer (ledger records, ``repro stats --json``,
# ``repro events --json`` all funnel through here)
# ---------------------------------------------------------------------------
def render_json(payload: Any) -> str:
    """Canonical single-line JSON used by every machine-readable output:
    ``payload`` is plain JSON already (each ``to_dict()`` builds it)."""
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# run records
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ToolRunStats:
    """Per-tool-type timing summary of one run.

    ``invocations`` counts coalesced task invocations, ``runs`` the
    individual tool executions inside them (fan-outs run more than
    once); ``duration`` summarizes per-invocation execute times and
    ``queue_wait`` sums the time those invocations sat ready waiting
    for a machine.
    """

    invocations: int
    runs: int
    duration: TimerStats
    queue_wait: float = 0.0
    #: Transient failures the resilience layer retried away before the
    #: runs counted above succeeded (``timeouts``: watchdog kills).
    retries: int = 0
    timeouts: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "invocations": self.invocations,
            "runs": self.runs,
            "duration": dict(vars(self.duration)),
            "queue_wait": self.queue_wait,
            "retries": self.retries,
            "timeouts": self.timeouts,
        }

    @classmethod
    def from_dict(cls, spec: dict[str, Any]) -> "ToolRunStats":
        return cls(
            invocations=int(spec.get("invocations", 0)),
            runs=int(spec.get("runs", 0)),
            duration=TimerStats(**spec.get("duration", {})),
            queue_wait=float(spec.get("queue_wait", 0.0)),
            retries=int(spec.get("retries", 0)),
            timeouts=int(spec.get("timeouts", 0)),
        )


@dataclass(frozen=True)
class RunRecord:
    """One executed flow, as remembered by the ledger."""

    run_id: str
    timestamp: float
    flow: str
    executor: str
    cache_policy: str
    trace_id: str = ""
    wall_time: float = 0.0
    serial_time: float = 0.0
    queue_wait: float = 0.0
    #: Realized serial/wall ratio — the PR 3 critical-path efficiency
    #: figure, persisted so degradation is detectable across runs.
    parallelism: float = 1.0
    #: Execution-slot count of the executor that ran the flow (machine
    #: pool size or worker process count; 1 for sequential).  Optional
    #: on the wire — omitted when 0, so the schema stays ledger.v1 and
    #: older ledgers load unchanged.
    pool_size: int = 0
    runs: int = 0
    created: int = 0
    reused: int = 0
    skipped: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    errors: int = 0
    error: str = ""
    #: Exception class name and failing tool type of the error above —
    #: lets ``repro health`` group error rates by tool instead of
    #: lumping every failure into one opaque message string.
    error_class: str = ""
    error_tool: str = ""
    #: Resilience telemetry: transient failures retried away, watchdog
    #: abandonments, invocations lost under graceful degradation, and
    #: the tool types the circuit breaker had quarantined by run end.
    retries: int = 0
    timeouts: int = 0
    failures: int = 0
    quarantined: tuple[str, ...] = ()
    tools: dict[str, ToolRunStats] = field(default_factory=dict)
    #: Per-worker telemetry of a procpool run (empty for in-process
    #: executors and for ledgers written before PR 8 — optional on the
    #: wire, so old ledgers load unchanged).
    workers: dict[str, WorkerRunStats] = field(default_factory=dict)
    #: Profiling summary of a ``--profile`` run (the
    #: :meth:`repro.obs.profiling.SamplingProfiler.summary` shape plus
    #: an optional ``query`` roll-up).  Optional on the wire — omitted
    #: when empty, so the schema stays ledger.v1 and ledgers written
    #: before PR 9 load unchanged.
    profile: dict[str, Any] = field(default_factory=dict)
    schema_version: str = LEDGER_SCHEMA_VERSION

    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_lookups
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def worker_utilization(self) -> float:
        """Pool utilization: summed worker busy time / (n x wall)."""
        return worker_utilization(self.workers, self.wall_time)

    @classmethod
    def from_report(cls, report: Any, *, executor: str,
                    cache_policy: str = "off", trace_id: str = "",
                    run_id: str = "", timestamp: float | None = None,
                    error: BaseException | str | None = None,
                    workers: dict[str, WorkerRunStats] | None = None,
                    profile: dict[str, Any] | None = None,
                    pool_size: int = 0) -> "RunRecord":
        """Distill an :class:`~repro.execution.executor.ExecutionReport`.

        ``report`` is duck-typed (obs must not import the execution
        layer).  ``cache_misses`` counts the executed tool runs of a
        cache-enabled run: every run that actually executed was, by
        definition, not served from the cache.
        """
        per_tool: dict[str, tuple[list[float], int, float,
                                  int, int]] = {}
        for result in report.results:
            tool = result.tool_type or COMPOSE_TOOL
            durations, runs, waited, retried, timed_out = \
                per_tool.get(tool, ([], 0, 0.0, 0, 0))
            durations.append(result.duration)
            per_tool[tool] = (
                durations, runs + result.runs,
                waited + result.queue_wait,
                retried + getattr(result, "retries", 0),
                timed_out + getattr(result, "timeouts", 0))
        tools = {
            tool: ToolRunStats(
                invocations=len(durations),
                runs=runs,
                duration=timer_stats_of(durations),
                queue_wait=waited,
                retries=retried,
                timeouts=timed_out)
            for tool, (durations, runs, waited, retried, timed_out)
            in per_tool.items()
        }
        cached_runs = report.cache_hits
        misses = report.runs if cache_policy != "off" else 0
        # Degraded runs carry their losses inside the report; a fatal
        # run carries its (annotated) exception in ``error``.  Either
        # way the record keeps the error class and the failing tool
        # type so health checks can group failures by tool.
        failure_entries = list(getattr(report, "failures", ()))
        error_text = "" if error is None else str(error)
        error_class = ""
        error_tool = ""
        if isinstance(error, BaseException):
            error_class = type(error).__name__
            error_tool = getattr(error, "repro_tool_type", "") or ""
        elif error is None and failure_entries:
            first = failure_entries[0]
            error_text = first.error
            error_class = first.error_class
            error_tool = first.tool_type or ""
        return cls(
            run_id=run_id or uuid.uuid4().hex[:12],
            timestamp=time.time() if timestamp is None else timestamp,
            flow=report.flow_name,
            executor=executor,
            cache_policy=cache_policy,
            trace_id=trace_id or "",
            wall_time=report.wall_time,
            serial_time=report.serial_time,
            queue_wait=report.queue_wait_time,
            parallelism=report.speedup,
            pool_size=pool_size,
            runs=report.runs,
            created=len(report.created),
            reused=len(report.reused),
            skipped=len(report.skipped),
            cache_hits=cached_runs,
            cache_misses=misses,
            errors=(0 if error is None else 1) + len(failure_entries),
            error=error_text,
            error_class=error_class,
            error_tool=error_tool,
            retries=int(getattr(report, "retries", 0)),
            timeouts=int(getattr(report, "timeouts", 0)),
            failures=len(failure_entries),
            quarantined=tuple(sorted(
                getattr(report, "quarantined", ()))),
            tools=tools,
            workers=dict(workers or {}),
            profile=dict(profile or {}),
        )

    def to_dict(self) -> dict[str, Any]:
        spec = {
            "schema_version": self.schema_version,
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "flow": self.flow,
            "executor": self.executor,
            "cache_policy": self.cache_policy,
            "trace_id": self.trace_id,
            "wall_time": self.wall_time,
            "serial_time": self.serial_time,
            "queue_wait": self.queue_wait,
            "parallelism": self.parallelism,
            "runs": self.runs,
            "created": self.created,
            "reused": self.reused,
            "skipped": self.skipped,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "errors": self.errors,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "failures": self.failures,
            "tools": {tool: stats.to_dict()
                      for tool, stats in sorted(self.tools.items())},
        }
        if self.pool_size:
            spec["pool_size"] = self.pool_size
        if self.error:
            spec["error"] = self.error
        if self.error_class:
            spec["error_class"] = self.error_class
        if self.error_tool:
            spec["error_tool"] = self.error_tool
        if self.quarantined:
            spec["quarantined"] = list(self.quarantined)
        if self.workers:
            spec["workers"] = {
                worker: stats.to_dict()
                for worker, stats in sorted(self.workers.items())}
        if self.profile:
            spec["profile"] = self.profile
        return spec

    @classmethod
    def from_dict(cls, spec: dict[str, Any]) -> "RunRecord":
        version = check_schema_version(spec, LEDGER_SCHEMA_VERSION, "ledger")
        return cls(
            run_id=spec["run_id"],
            timestamp=float(spec.get("timestamp", 0.0)),
            flow=spec.get("flow", ""),
            executor=spec.get("executor", SEQUENTIAL_EXECUTOR),
            cache_policy=spec.get("cache_policy", "off"),
            trace_id=spec.get("trace_id", ""),
            wall_time=float(spec.get("wall_time", 0.0)),
            serial_time=float(spec.get("serial_time", 0.0)),
            queue_wait=float(spec.get("queue_wait", 0.0)),
            parallelism=float(spec.get("parallelism", 1.0)),
            pool_size=int(spec.get("pool_size", 0)),
            runs=int(spec.get("runs", 0)),
            created=int(spec.get("created", 0)),
            reused=int(spec.get("reused", 0)),
            skipped=int(spec.get("skipped", 0)),
            cache_hits=int(spec.get("cache_hits", 0)),
            cache_misses=int(spec.get("cache_misses", 0)),
            errors=int(spec.get("errors", 0)),
            error=spec.get("error", ""),
            error_class=spec.get("error_class", ""),
            error_tool=spec.get("error_tool", ""),
            retries=int(spec.get("retries", 0)),
            timeouts=int(spec.get("timeouts", 0)),
            failures=int(spec.get("failures", 0)),
            quarantined=tuple(spec.get("quarantined", ())),
            tools={tool: ToolRunStats.from_dict(stats)
                   for tool, stats in spec.get("tools", {}).items()},
            workers={worker: WorkerRunStats.from_dict(stats)
                     for worker, stats
                     in spec.get("workers", {}).items()},
            profile=dict(spec.get("profile", {})),
            schema_version=version,
        )

    def render(self) -> str:
        """One human-readable line (the ``repro ledger show`` format)."""
        parts = [
            f"{self.run_id}",
            f"flow={self.flow}",
            f"exec={self.executor}",
            f"cache={self.cache_policy}",
            f"wall={self.wall_time * 1e3:.2f}ms",
            f"runs={self.runs}",
            f"created={self.created}",
        ]
        if self.cache_lookups:
            parts.append(f"hits={self.cache_hits}/{self.cache_lookups}")
        if self.queue_wait:
            parts.append(f"qwait={self.queue_wait * 1e3:.2f}ms")
        if self.parallelism > 1.05:
            parts.append(f"par={self.parallelism:.2f}x")
        if self.pool_size > 1:
            parts.append(f"pool={self.pool_size}")
        if self.retries:
            parts.append(f"retries={self.retries}")
        if self.timeouts:
            parts.append(f"timeouts={self.timeouts}")
        if self.failures:
            parts.append(f"FAILURES={self.failures}")
        if self.errors:
            parts.append(f"ERRORS={self.errors}")
            if self.error_class:
                tool = f"@{self.error_tool}" if self.error_tool else ""
                parts.append(f"error={self.error_class}{tool}")
        if self.quarantined:
            parts.append("quarantined="
                         + ",".join(self.quarantined))
        if self.workers:
            parts.append(f"workers={len(self.workers)}")
            parts.append(f"util={self.worker_utilization * 100.0:.0f}%")
        if self.profile:
            parts.append(
                f"profiled={self.profile.get('samples', 0)}smp")
        if self.trace_id:
            parts.append(f"trace={self.trace_id}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# the ledger itself
# ---------------------------------------------------------------------------
Run = TypeVar("Run")


def find_run(records: Sequence[Run], run_id: str,
             id_of: Callable[[Run], str], source: str) -> Run:
    """The latest record of one run: the run whose id is ``run_id``,
    else the only run whose id starts with it (ledger records and
    profile records are looked up alike)."""
    matches = ([r for r in records if id_of(r) == run_id]
               or [r for r in records if id_of(r).startswith(run_id)])
    if not matches:
        raise ObservabilityError(f"no run {run_id!r} in {source}")
    ids = sorted({id_of(r) for r in matches})
    if len(ids) > 1:
        raise ObservabilityError(
            f"run id {run_id!r} is ambiguous: {ids}")
    return matches[-1]


class RunLedger:
    """Append-only JSONL store of :class:`RunRecord` entries.

    One instance per environment directory; appends are serialized
    under a lock (coordinating executors may finish concurrently) and
    go through :func:`~repro.obs.sinks.append_line`, so a crashed
    process leaves at worst one truncated trailing line — which the
    tolerant reader forgives, and the next append cuts.  A missing file
    is an empty ledger, never an error: environments predating the
    ledger load unchanged.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self._lock = threading.Lock()

    def append(self, record: RunRecord) -> RunRecord:
        line = render_json(record.to_dict())
        with self._lock:
            append_jsonl(self.path, line)
        return record

    def record_run(self, report: Any, *, executor: str,
                   cache_policy: str = "off", trace_id: str = "",
                   error: BaseException | str | None = None,
                   workers: dict[str, WorkerRunStats] | None = None,
                   profile: dict[str, Any] | None = None,
                   pool_size: int = 0) -> RunRecord | None:
        """Build and append one record from an execution report.

        Ledger I/O failures (full disk, revoked permissions) are
        swallowed: losing one longitudinal data point must never fail
        the design run that produced it.
        """
        record = RunRecord.from_report(
            report, executor=executor, cache_policy=cache_policy,
            trace_id=trace_id, error=error, workers=workers,
            profile=profile, pool_size=pool_size)
        try:
            return self.append(record)
        except OSError:
            return None

    def records(self) -> tuple[RunRecord, ...]:
        """Every readable record, oldest first; missing file is empty."""
        if not self.path.exists():
            return ()
        reader = JSONLReader(self.path, RunRecord.from_dict, "ledger")
        return tuple(record for _, record in reader.read(strict=False))

    def last(self, count: int = 1) -> tuple[RunRecord, ...]:
        records = self.records()
        return records[-count:] if count > 0 else ()

    def find(self, run_id: str) -> RunRecord:
        """Look up one run by id (unambiguous prefixes accepted)."""
        return find_run(self.records(), run_id, lambda r: r.run_id,
                        f"ledger {self.path}")

    def for_trace(self, trace_id: str) -> RunRecord | None:
        """The run record a trace id belongs to (joins instances to
        runs: history records carry the same trace id)."""
        if not trace_id:
            return None
        for record in reversed(self.records()):
            if record.trace_id == trace_id:
                return record
        return None

    def __len__(self) -> int:
        return len(self.records())

    def __repr__(self) -> str:
        return f"RunLedger({str(self.path)!r})"


# ---------------------------------------------------------------------------
# Prometheus export of ledger-derived series
# ---------------------------------------------------------------------------
def render_prometheus_ledger(records: Sequence[RunRecord],
                             prefix: str = "repro") -> str:
    """``repro_run_*`` series in Prometheus text format.

    Monotone totals aggregate the whole ledger; per-run gauges and the
    per-tool duration summary describe the latest record, which is what
    a scrape of a live environment wants to see.
    """
    samples: list[PrometheusSample] = []

    def sample(metric: str, kind: str, value: float,
               labels: dict[str, str] | None = None,
               suffix: str = "") -> None:
        samples.append((metric, kind, suffix, labels or {}, value))

    total = len(records)
    sample(f"{prefix}_runs_total", "counter", total)
    sample(f"{prefix}_run_errors_total", "counter",
           sum(r.errors for r in records))
    sample(f"{prefix}_run_tool_runs_total", "counter",
           sum(r.runs for r in records))
    sample(f"{prefix}_run_created_instances_total", "counter",
           sum(r.created for r in records))
    sample(f"{prefix}_run_cache_hits_total", "counter",
           sum(r.cache_hits for r in records))
    sample(f"{prefix}_run_cache_misses_total", "counter",
           sum(r.cache_misses for r in records))
    sample(f"{prefix}_run_retries_total", "counter",
           sum(r.retries for r in records))
    sample(f"{prefix}_run_timeouts_total", "counter",
           sum(r.timeouts for r in records))
    sample(f"{prefix}_run_failures_total", "counter",
           sum(r.failures for r in records))
    sample(f"{prefix}_run_worker_steals_total", "counter",
           sum(stats.steals for r in records
               for stats in r.workers.values()))
    sample(f"{prefix}_run_worker_respawns_total", "counter",
           sum(stats.respawns for r in records
               for stats in r.workers.values()))
    if not records:
        return render_prometheus_families(samples)
    last = records[-1]
    labels = {"flow": last.flow, "executor": last.executor,
              "run": last.run_id}
    sample(f"{prefix}_run_wall_time_seconds", "gauge", last.wall_time,
           labels)
    sample(f"{prefix}_run_serial_time_seconds", "gauge",
           last.serial_time, labels)
    sample(f"{prefix}_run_queue_wait_seconds", "gauge", last.queue_wait,
           labels)
    sample(f"{prefix}_run_parallelism", "gauge", last.parallelism,
           labels)
    sample(f"{prefix}_run_cache_hit_rate", "gauge", last.cache_hit_rate,
           labels)
    sample(f"{prefix}_run_timestamp_seconds", "gauge", last.timestamp,
           labels)
    metric = f"{prefix}_run_tool_duration_seconds"
    for tool, stats in sorted(last.tools.items()):
        tool_labels = {"tool": tool}
        sample(metric, "summary", stats.duration.p50,
               {**tool_labels, "quantile": "0.5"})
        sample(metric, "summary", stats.duration.p95,
               {**tool_labels, "quantile": "0.95"})
        sample(metric, "summary", stats.invocations, tool_labels,
               suffix="_count")
        sample(metric, "summary", stats.duration.total, tool_labels,
               suffix="_sum")
    if last.workers:
        sample(f"{prefix}_run_worker_utilization", "gauge",
               last.worker_utilization, labels)
        per_worker = (
            (f"{prefix}_run_worker_busy_seconds",
             lambda stats: stats.busy_time),
            (f"{prefix}_run_worker_idle_seconds",
             lambda stats: stats.idle_time),
            (f"{prefix}_run_worker_invocations",
             lambda stats: stats.invocations),
            (f"{prefix}_run_worker_rss_kilobytes",
             lambda stats: stats.rss_kb),
        )
        for metric, extract in per_worker:
            for worker, stats in sorted(last.workers.items()):
                sample(metric, "gauge", extract(stats),
                       {"worker": worker})
    return render_prometheus_families(samples)
