"""Metrics aggregated from execution events.

A :class:`MetricsRegistry` is both a plain metrics API (counters,
gauges, timer histograms with p50/p95/max) and an event sink: subscribe
it to an :class:`~repro.obs.events.EventBus` (or replay a JSONL log
into it) and it aggregates invocation counts, tool durations and
failures per tool type and per flow — the numbers every perf PR must
cite before claiming a win.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .events import (CACHE_HIT, CACHE_MISS, COMPOSITION_RUN,
                     EXECUTION_FAILED, FLOW_FINISHED, FLOW_STARTED,
                     INSTANCE_CREATED, TOOL_FINISHED, WORKER_STATS,
                     Event)


@dataclass(frozen=True)
class TimerStats:
    """Summary of one timer histogram."""

    count: int
    total: float
    mean: float
    p50: float
    p95: float
    max: float

    def render(self) -> str:
        return (f"n={self.count} total={self.total * 1e3:.2f}ms "
                f"mean={self.mean * 1e3:.2f}ms p50={self.p50 * 1e3:.2f}ms "
                f"p95={self.p95 * 1e3:.2f}ms max={self.max * 1e3:.2f}ms")


EMPTY_TIMER = TimerStats(0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile over a pre-sorted sample.

    Edge cases are exact: one sample returns that sample (nothing to
    interpolate against), ``fraction`` 0.0/1.0 return min/max, and the
    interpolation index never reaches past the end of the list —
    ``fraction=1.0`` lands exactly on the last element with weight 0 on
    the (clamped) upper neighbour.
    """
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    fraction = min(1.0, max(0.0, fraction))
    position = fraction * (len(sorted_values) - 1)
    lower = min(int(position), len(sorted_values) - 2)
    weight = position - lower
    interpolated = (sorted_values[lower] * (1.0 - weight)
                    + sorted_values[lower + 1] * weight)
    # clamp away float rounding: a percentile must never leave the
    # segment it interpolates (keeps p50 <= p95 <= max exact)
    return max(sorted_values[lower],
               min(interpolated, sorted_values[lower + 1]))


def timer_stats_of(values: Sequence[float]) -> TimerStats:
    """Summarize a raw sample into a :class:`TimerStats`."""
    ordered = sorted(values)
    if not ordered:
        return EMPTY_TIMER
    total = sum(ordered)
    return TimerStats(
        count=len(ordered),
        total=total,
        mean=total / len(ordered),
        p50=_percentile(ordered, 0.50),
        p95=_percentile(ordered, 0.95),
        max=ordered[-1],
    )


_METRIC_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Map an internal metric name onto the Prometheus charset."""
    cleaned = _METRIC_BAD_CHARS.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def escape_label_value(value: str) -> str:
    """Escape a label value for the Prometheus text format."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


#: One Prometheus sample: family name, family type, sample-name suffix
#: (``_count``/``_sum`` of a summary, else ""), labels and value.
PrometheusSample = tuple[str, str, str, dict[str, Any], float]


def render_prometheus_families(samples: Iterable[PrometheusSample]
                               ) -> str:
    """Prometheus text format: each family's ``# TYPE`` line, once,
    before its first sample, then one ``name{labels} value`` line per
    sample in the given order (so a family's samples must be adjacent).
    """
    lines: list[str] = []
    declared: set[str] = set()
    for family, kind, suffix, labels, value in samples:
        if family not in declared:
            declared.add(family)
            lines.append(f"# TYPE {family} {kind}")
        rendered = ",".join(
            f'{name}="{escape_label_value(str(item))}"'
            for name, item in sorted(labels.items()))
        lines.append(f"{family}{suffix}"
                     + (f"{{{rendered}}}" if rendered else "")
                     + f" {value}")
    return "".join(line + "\n" for line in lines)


class MetricsRegistry:
    """Counters, gauges and timers, aggregated per tool type and flow.

    Thread-safe: one lock guards every read and write of the three
    stores, so the parallel executors may ``observe()``/``inc()`` from
    worker threads while a reporter snapshots — no torn reads of a
    timer list mid-append, no lost counter increments.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, list[float]] = {}

    # ------------------------------------------------------------------
    # plain metrics API
    # ------------------------------------------------------------------
    def inc(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def gauge(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self._gauges.get(name, default)

    def gauges(self) -> dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self._timers.setdefault(name, []).append(value)

    def timer(self, name: str) -> TimerStats:
        with self._lock:
            values = list(self._timers.get(name, ()))
        return timer_stats_of(values)

    def counters(self, prefix: str = "") -> dict[str, int]:
        with self._lock:
            return {name: count for name, count in self._counters.items()
                    if name.startswith(prefix)}

    def timers(self, prefix: str = "") -> dict[str, TimerStats]:
        with self._lock:
            names = [name for name in self._timers
                     if name.startswith(prefix)]
        return {name: self.timer(name) for name in sorted(names)}

    # ------------------------------------------------------------------
    # event-sink interface
    # ------------------------------------------------------------------
    def handle(self, event: Event) -> None:
        """Aggregate one execution event (EventBus sink interface)."""
        kind = event.event_type
        if kind in (TOOL_FINISHED, COMPOSITION_RUN):
            tool = event.tool_type or "@compose"
            self.inc(f"tool.{tool}.invocations")
            self.inc(f"tool.{tool}.runs", event.value("runs", 1))
            self.observe(f"tool.{tool}", event.duration)
            # queue wait is reported separately from execute time so
            # scheduling pressure never inflates tool durations
            queue_wait = float(event.value("queue_wait", 0.0))
            if queue_wait > 0:
                self.observe("queue_wait", queue_wait)
                self.observe(f"tool.{tool}.queue_wait", queue_wait)
            if event.flow:
                self.inc(f"flow.{event.flow}.invocations")
        elif kind == INSTANCE_CREATED:
            entity = event.value("entity_type", "?")
            self.inc("instances")
            self.inc(f"instances.{entity}")
        elif kind == FLOW_STARTED:
            self.inc("flows.started")
        elif kind == FLOW_FINISHED:
            self.inc("flows.finished")
            if event.flow:
                self.observe(f"flow.{event.flow}", event.duration)
        elif kind == EXECUTION_FAILED:
            self.inc("failures")
            if event.flow:
                self.inc(f"failures.{event.flow}")
        elif kind == CACHE_HIT:
            tool = event.tool_type or "@compose"
            self.inc("cache.hits")
            self.inc(f"cache.hits.{tool}")
            self.inc("cache.bytes_saved", int(event.value("bytes", 0)))
            self.observe("cache.time_saved",
                         float(event.value("saved", 0.0)))
        elif kind == CACHE_MISS:
            self.inc("cache.misses")
            self.inc(f"cache.misses.{event.tool_type or '@compose'}")
        elif kind == WORKER_STATS:
            worker = event.machine or "?"
            for counter in ("batches", "invocations", "steals",
                            "respawns", "cache_hits"):
                amount = int(event.value(counter, 0))
                if amount:
                    self.inc(f"worker.{worker}.{counter}", amount)
                    self.inc(f"workers.{counter}", amount)
            self.set_gauge(f"worker.{worker}.busy_seconds",
                           float(event.value("busy", event.duration)))
            self.set_gauge(f"worker.{worker}.idle_seconds",
                           float(event.value("idle", 0.0)))
            self.set_gauge(f"worker.{worker}.utilization",
                           float(event.value("utilization", 0.0)))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            timer_names = sorted(self._timers)
        return {
            "counters": counters,
            "gauges": gauges,
            "timers": {name: vars(self.timer(name))
                       for name in timer_names},
        }

    def render_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text-format exposition of the registry.

        Counters become ``<prefix>_<name>_total`` counter families,
        gauges plain gauges, and timers summaries
        (``<prefix>_<name>_seconds`` with p50/p95 quantiles plus
        ``_count``/``_sum``).  Metric names are sanitized onto the
        Prometheus charset; families are grouped so every sample
        follows its ``# TYPE`` line, as the text format requires.
        """
        snapshot = self.snapshot()
        samples: list[PrometheusSample] = []
        for name, count in snapshot["counters"].items():
            samples.append((f"{prefix}_{sanitize_metric_name(name)}_total",
                            "counter", "", {}, count))
        for name, value in snapshot["gauges"].items():
            samples.append((f"{prefix}_{sanitize_metric_name(name)}",
                            "gauge", "", {}, value))
        for name, stats in snapshot["timers"].items():
            metric = f"{prefix}_{sanitize_metric_name(name)}_seconds"
            samples += [
                (metric, "summary", "", {"quantile": "0.5"}, stats["p50"]),
                (metric, "summary", "", {"quantile": "0.95"},
                 stats["p95"]),
                (metric, "summary", "_count", {}, stats["count"]),
                (metric, "summary", "_sum", {}, stats["total"])]
        # stable: a family's samples keep their order
        return render_prometheus_families(
            sorted(samples, key=lambda sample: sample[0]))

    def render(self, top: int = 8) -> str:
        """The ``repro stats`` metrics summary."""
        lines = ["execution metrics:"]
        started = self.counter("flows.started")
        finished = self.counter("flows.finished")
        failures = self.counter("failures")
        lines.append(f"  flows: {started} started, {finished} finished, "
                     f"{failures} failed")
        instances = self.counter("instances")
        if instances:
            busiest = sorted(
                ((name.partition("instances.")[2], count)
                 for name, count in self.counters("instances.").items()),
                key=lambda kv: (-kv[1], kv[0]))[:top]
            lines.append(f"  instances created: {instances} (" + ", ".join(
                f"{name}={count}" for name, count in busiest) + ")")
        waits = self.timer("queue_wait")
        if waits.count:
            lines.append(f"  queue wait: {waits.render()}")
        hits = self.counter("cache.hits")
        misses = self.counter("cache.misses")
        if hits or misses:
            saved = self.timer("cache.time_saved")
            lines.append(
                f"  cache: {hits} hits, {misses} misses, "
                f"{self.counter('cache.bytes_saved')} bytes saved, "
                f"{saved.total * 1e3:.2f}ms saved")
        workers = sorted({name.split(".")[1]
                          for name in self.counters("worker.")}
                         | {name.split(".")[1]
                            for name in self.gauges()
                            if name.startswith("worker.")})
        if workers:
            lines.append("  workers:")
            for worker in workers:
                busy = self.gauge(f"worker.{worker}.busy_seconds")
                util = self.gauge(f"worker.{worker}.utilization")
                parts = [
                    f"batches={self.counter(f'worker.{worker}.batches')}",
                    f"inv={self.counter(f'worker.{worker}.invocations')}",
                    f"busy={busy * 1e3:.2f}ms",
                    f"util={util * 100.0:.0f}%",
                ]
                for counter in ("cache_hits", "steals", "respawns"):
                    count = self.counter(f"worker.{worker}.{counter}")
                    if count:
                        parts.append(f"{counter}={count}")
                lines.append(f"    {worker:<12} " + " ".join(parts))
        tools = self.timers("tool.")
        if tools:
            by_total = sorted(tools.items(),
                              key=lambda kv: (-kv[1].total, kv[0]))[:top]
            lines.append("  slowest tool types:")
            for name, stats in by_total:
                tool = name.partition("tool.")[2]
                lines.append(f"    {tool:<22} {stats.render()}")
        invocations = self.counters("flow.")
        if invocations:
            busiest_flows = sorted(invocations.items(),
                                   key=lambda kv: (-kv[1], kv[0]))[:top]
            lines.append("  invocations by flow: " + ", ".join(
                f"{name.partition('flow.')[2].rpartition('.invocations')[0]}"
                f"={count}" for name, count in busiest_flows))
        failure_flows = self.counters("failures.")
        if failure_flows:
            lines.append("  failures by flow: " + ", ".join(
                f"{name.partition('failures.')[2]}={count}"
                for name, count in sorted(failure_flows.items())))
        return "\n".join(lines)

    def __repr__(self) -> str:
        with self._lock:
            return (f"MetricsRegistry({len(self._counters)} counters, "
                    f"{len(self._gauges)} gauges, "
                    f"{len(self._timers)} timers)")
