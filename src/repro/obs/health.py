"""Longitudinal health checks over the run ledger.

The ledger records per-run performance; this module decides whether the
*latest* run is healthy relative to the runs before it.  Per tool type
it maintains a rolling baseline — an EWMA of per-run mean durations for
trend reporting plus a robust center/spread pair (median and MAD) for
gating — and flags a regression when the latest mean drifts more than
``k``·MAD above the median (with relative and absolute floors so
near-deterministic tools and sub-millisecond timers don't flake on
scheduler noise).

On top of the baselines sits a small catalog of *named* health checks,
each returning an ok/warn/fail verdict:

* ``tool-duration-drift`` — per-tool mean duration vs. the baseline;
* ``error-rate`` — the latest run failed while the baseline was clean
  (grouped by failing tool type when the record names one);
* ``tool-quarantine`` — the circuit breaker quarantined a tool type;
* ``cache-hit-rate`` — cache effectiveness collapsed vs. the baseline;
* ``parallelism-efficiency`` — the realized serial/wall ratio (the
  PR 3 critical-path efficiency figure) degraded vs. runs of the same
  executor kind, raw and normalized by the recorded execution-slot
  count (``parallelism / pool_size``, the multicore-smoke efficiency
  figure brought ledger-side);
* ``worker-utilization`` — procpool worker-pool health from the
  per-worker ledger telemetry: absolute busy-time imbalance across
  the pool, plus utilization drift vs. same-executor baselines;
* ``tool-self-time-drift`` — per-tool sampled self time (from the
  optional ``--profile`` summary on the record) vs. the profiled
  baseline runs;
* ``query-latency-drift`` — mean history-backend statement latency
  (from the same profile summary) vs. the profiled baseline.

``repro health`` renders the report and exits 1 on any fail, which is
what CI gates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .ledger import RunRecord
from .workers import worker_imbalance

OK = "ok"
WARN = "warn"
FAIL = "fail"

_SEVERITY = {OK: 0, WARN: 1, FAIL: 2}

#: Default tuning: drift gate ``k``·MAD (MAD scaled to sigma-equivalent),
#: with floors so a tiny-but-stable baseline never gates on noise.
#: ``repro health`` can override the window, ``k`` and the sample
#: minimum (:class:`HealthThresholds`); the rest is fixed.
DEFAULT_WINDOW = 20
DEFAULT_K = 4.0
DEFAULT_MIN_SAMPLES = 2
DEFAULT_EWMA_ALPHA = 0.3
DEFAULT_REL_FLOOR = 0.25
#: Sub-10ms mean drift never gates: framework-level tasks (composition,
#: trivial tool stubs) time in the noise band of a fresh process, while
#: the tool runs worth gating on are external-process scale.
DEFAULT_ABS_FLOOR = 0.010
#: MAD -> sigma-equivalent scale for normally distributed samples.
MAD_SIGMA = 1.4826
#: Baseline error rate above which a failing run only warns (the
#: flow was already unstable; nothing *regressed*).
ERROR_RATE_UNSTABLE = 0.25
#: The collapse rule of the cache, parallelism, efficiency and
#: utilization gates: a value below ``COLLAPSE_FAIL`` times its
#: baseline median fails, below ``COLLAPSE_WARN`` times it warns.  The
#: cache gate fails sooner, below ``CACHE_FAIL_RATIO``.
COLLAPSE_FAIL = 0.6
COLLAPSE_WARN = 0.8
CACHE_FAIL_RATIO = 0.5
#: Minimum baseline hit rate before cache collapse can gate.
CACHE_MIN_RATE = 0.25
#: Minimum baseline parallelism before efficiency loss can gate.
PARALLELISM_MIN = 1.5
#: Worker-normalized efficiency gate (parallelism / pool size, the
#: multicore-smoke figure brought ledger-side): baselines below the
#: floor never gate — a flow without enough parallel work can't
#: regress by staying serial.
EFFICIENCY_MIN = 0.25
#: Worker-pool gates (procpool runs with per-worker telemetry):
#: total busy seconds below the floor never gate (framework-scale
#: tools finish in the noise band); imbalance is max/mean busy
#: across workers; utilization drift compares against the median
#: of same-executor baseline runs.
WORKER_BUSY_FLOOR = 0.05
WORKER_IMBALANCE_WARN = 2.5
WORKER_IMBALANCE_FAIL = 4.0
WORKER_MIN_UTILIZATION = 0.2
#: Absolute floor for the query-latency-drift gate: mean statement
#: latencies live in the sub-millisecond band, so the tool-scale
#: ``DEFAULT_ABS_FLOOR`` would never let it gate.  Sub-2ms mean drift
#: is still treated as noise.
QUERY_ABS_FLOOR = 0.002


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def _mad(values: Sequence[float], center: float) -> float:
    """Median absolute deviation around a given center."""
    return _median([abs(value - center) for value in values])


def _ewma(values: Sequence[float], alpha: float) -> float:
    """Exponentially weighted moving average, oldest first."""
    if not values:
        return 0.0
    average = values[0]
    for value in values[1:]:
        average = alpha * value + (1.0 - alpha) * average
    return average


@dataclass(frozen=True)
class ToolBaseline:
    """Rolling duration baseline for one tool type."""

    tool: str
    samples: int
    ewma: float
    median: float
    mad: float
    #: Absolute drift (seconds above the median) that flips to FAIL.
    threshold: float

    @classmethod
    def of(cls, tool: str, values: Sequence[float], k: float,
           floor: float = DEFAULT_ABS_FLOOR) -> "ToolBaseline":
        """The baseline of a series, oldest first.

        The drift threshold is ``max(k * 1.4826 * MAD, rel_floor *
        median, floor)``: MAD carries the gate when the baseline is
        noisy, the relative floor when it is tight, and the absolute
        floor keeps microsecond-scale timers from gating on clock
        jitter.
        """
        median = _median(values)
        mad = _mad(values, median)
        return cls(tool=tool, samples=len(values),
                   ewma=_ewma(values, DEFAULT_EWMA_ALPHA),
                   median=median, mad=mad,
                   threshold=max(k * MAD_SIGMA * mad,
                                 DEFAULT_REL_FLOOR * median, floor))

    def judge(self, value: float) -> tuple[str, float]:
        """``(verdict, drift)`` of a new value: FAIL when it drifts
        above the median by more than the threshold, WARN past half."""
        drift = value - self.median
        if drift > self.threshold:
            return FAIL, drift
        return (WARN if drift > 0.5 * self.threshold else OK), drift

    def report(self, value: float, subject: str, measure: str = "",
               unit: str = "ms") -> tuple[str, str]:
        """``(verdict, detail)`` of :meth:`judge`, the detail every
        drift check prints: ``subject``, its ``measure`` and value, the
        drift over the median and, on FAIL, the threshold and sample
        count, in ``ms`` or ``us`` ("" when OK)."""
        verdict, drift = self.judge(value)
        scale, digits = {"ms": (1e3, 2), "us": (1e6, 0)}[unit]

        def show(seconds: float) -> str:
            return f"{seconds * scale:.{digits}f}{unit}"

        if verdict == FAIL:
            return FAIL, (
                f"{subject} {measure}{show(value)} is +{show(drift)} "
                f"over baseline median {show(self.median)} "
                f"(threshold +{show(self.threshold)}, n={self.samples})")
        if verdict == WARN:
            return WARN, (
                f"{subject} drifting: {measure}{show(value)}, "
                f"+{show(drift)} over median {show(self.median)}")
        return OK, ""

    def render(self) -> str:
        return (f"{self.tool}: n={self.samples} "
                f"median={self.median * 1e3:.2f}ms "
                f"ewma={self.ewma * 1e3:.2f}ms "
                f"mad={self.mad * 1e3:.2f}ms "
                f"threshold=+{self.threshold * 1e3:.2f}ms")


def tool_baselines(records: Sequence[RunRecord], *,
                   window: int = DEFAULT_WINDOW,
                   k: float = DEFAULT_K) -> dict[str, ToolBaseline]:
    """Per-tool-type baselines (:meth:`ToolBaseline.of` over per-run
    mean durations) over the last ``window`` clean ledger records."""
    recent = [r for r in records if not r.errors][-window:]
    samples: dict[str, list[float]] = {}
    for record in recent:
        for tool, stats in record.tools.items():
            samples.setdefault(tool, []).append(stats.duration.mean)
    return {tool: ToolBaseline.of(tool, means, k)
            for tool, means in samples.items()}


# ---------------------------------------------------------------------------
# health checks
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CheckResult:
    """Verdict of one named health check."""

    name: str
    verdict: str
    detail: str

    def render(self) -> str:
        return f"[{self.verdict.upper():<4}] {self.name}: {self.detail}"


@dataclass(frozen=True)
class HealthThresholds:
    """The knobs ``repro health`` sets; every other gate is a module
    constant."""

    window: int = DEFAULT_WINDOW
    k: float = DEFAULT_K
    min_samples: int = DEFAULT_MIN_SAMPLES


def _worst(verdicts: Sequence[str]) -> str:
    return max(verdicts, key=lambda v: _SEVERITY[v]) if verdicts else OK


def _collapse(value: float, base: float, details: Sequence[str],
              fail: float = COLLAPSE_FAIL) -> tuple[str, str]:
    """``(verdict, detail)`` of the collapse rule: ``value`` fails below
    ``fail`` times its baseline median ``base`` (which every gate
    floors above 0) and warns below ``COLLAPSE_WARN`` times it;
    ``details`` are the FAIL, WARN and OK texts."""
    ratio = value / base
    if ratio < fail:
        return FAIL, details[0]
    if ratio < COLLAPSE_WARN:
        return WARN, details[1]
    return OK, details[2]


def _tool_drift(name: str, values: dict[str, float],
                baselines: dict[str, ToolBaseline],
                thresholds: HealthThresholds, calm: str,
                subject: str = "{}", measure: str = "") -> CheckResult:
    """Judge each tool's value against its baseline (tools with fewer
    than ``min_samples`` baseline runs sit out); ``calm`` is the
    detail when none drifts."""
    verdicts: list[str] = []
    details: list[str] = []
    for tool, value in sorted(values.items()):
        base = baselines.get(tool)
        if base is None or base.samples < thresholds.min_samples:
            continue
        verdict, detail = base.report(value, subject.format(tool),
                                      measure)
        if verdict != OK:
            verdicts.append(verdict)
            details.append(detail)
    if not verdicts:
        return CheckResult(name, OK, calm)
    return CheckResult(name, _worst(verdicts), "; ".join(details))


def check_tool_duration_drift(current: RunRecord,
                              baseline: Sequence[RunRecord],
                              thresholds: HealthThresholds
                              ) -> CheckResult:
    """Per-tool mean duration vs. the EWMA+MAD ledger baseline."""
    baselines = tool_baselines(baseline, window=thresholds.window,
                               k=thresholds.k)
    return _tool_drift(
        "tool-duration-drift",
        {tool: stats.duration.mean
         for tool, stats in current.tools.items()},
        baselines, thresholds,
        "tool durations within baseline" if baselines
        else "no baseline yet", measure="mean ")


def _describe_error(record: RunRecord) -> str:
    """``ToolError@Simulator: message`` when the record knows the error
    class and failing tool type, the bare message otherwise."""
    message = record.error or "unknown error"
    if not record.error_class:
        return message
    tool = f"@{record.error_tool}" if record.error_tool else ""
    return f"{record.error_class}{tool}: {message}"


def check_error_rate(current: RunRecord,
                     baseline: Sequence[RunRecord],
                     thresholds: HealthThresholds) -> CheckResult:
    """A failing run against a (mostly) clean baseline is a spike.

    When the record names the failing tool type, the baseline rate is
    computed per tool — ten clean runs of one flow don't excuse a
    simulator that has been failing every time it actually ran.
    """
    name = "error-rate"
    if not current.errors:
        return CheckResult(name, OK, "run completed without errors")
    described = _describe_error(current)
    if len(baseline) < thresholds.min_samples:
        return CheckResult(
            name, WARN,
            f"run failed ({described}); no baseline to compare against")
    if current.error_tool:
        # group the baseline by the failing tool: only runs that
        # invoked (or also failed on) this tool type are peers
        peers = [r for r in baseline
                 if current.error_tool in r.tools
                 or r.error_tool == current.error_tool]
        failing = [r for r in peers
                   if r.error_tool == current.error_tool]
        if len(peers) >= thresholds.min_samples:
            rate = len(failing) / len(peers)
            if rate <= ERROR_RATE_UNSTABLE:
                return CheckResult(
                    name, FAIL,
                    f"run failed ({described}) while "
                    f"{current.error_tool} baseline error rate was "
                    f"{rate:.0%} over {len(peers)} runs")
            return CheckResult(
                name, WARN,
                f"run failed but {current.error_tool} was already "
                f"unstable (baseline error rate {rate:.0%})")
    rate = sum(1 for r in baseline if r.errors) / len(baseline)
    if rate <= ERROR_RATE_UNSTABLE:
        return CheckResult(
            name, FAIL,
            f"run failed ({described}) while baseline error rate was "
            f"{rate:.0%} over {len(baseline)} runs")
    return CheckResult(
        name, WARN,
        f"run failed but the flow was already unstable "
        f"(baseline error rate {rate:.0%})")


def check_quarantine(current: RunRecord,
                     baseline: Sequence[RunRecord],
                     thresholds: HealthThresholds) -> CheckResult:
    """Quarantined tool types in the latest run always gate.

    The circuit breaker only opens after repeated consecutive
    failures, so an open breaker *is* the drift signal — no baseline
    comparison needed.
    """
    name = "tool-quarantine"
    if not current.quarantined:
        return CheckResult(name, OK, "no tool types quarantined")
    tools = ", ".join(current.quarantined)
    return CheckResult(
        name, FAIL,
        f"circuit breaker quarantined: {tools} "
        f"({current.failures} invocation failure(s) recorded)")


def check_cache_hit_rate(current: RunRecord,
                         baseline: Sequence[RunRecord],
                         thresholds: HealthThresholds) -> CheckResult:
    """Cache-effectiveness collapse vs. cache-enabled baseline runs."""
    name = "cache-hit-rate"
    if current.cache_policy == "off" or not current.cache_lookups:
        return CheckResult(name, OK, "cache not in use")
    rates = [r.cache_hit_rate for r in baseline
             if r.cache_policy != "off" and r.cache_lookups]
    if len(rates) < thresholds.min_samples:
        return CheckResult(name, OK, "no cache baseline yet")
    base_rate = _median(rates)
    if base_rate < CACHE_MIN_RATE:
        return CheckResult(
            name, OK,
            f"baseline hit rate {base_rate:.0%} too low to gate")
    rate = current.cache_hit_rate
    return CheckResult(name, *_collapse(rate, base_rate, (
        f"hit rate collapsed to {rate:.0%} "
        f"(baseline {base_rate:.0%} over {len(rates)} runs)",
        f"hit rate {rate:.0%} below baseline {base_rate:.0%}",
        f"hit rate {rate:.0%} (baseline {base_rate:.0%})"),
        CACHE_FAIL_RATIO))


def check_parallelism_efficiency(current: RunRecord,
                                 baseline: Sequence[RunRecord],
                                 thresholds: HealthThresholds
                                 ) -> CheckResult:
    """Serial/wall efficiency vs. baseline runs of the same executor.

    Two gates.  *Raw drift* compares the realized serial/wall ratio
    against the same-executor baseline median — it catches a flow that
    stopped parallelizing.  *Worker-normalized drift* divides that
    ratio by the recorded pool size first (parallelism / pool_size,
    the per-slot efficiency the multicore-smoke CI job gates on), so a
    run that kept its speedup only by doubling the pool still fails.
    The normalized gate needs ``pool_size`` on the records, which
    in-process and pre-PR-10 ledgers may not carry — it silently sits
    out when the data is missing.
    """
    name = "parallelism-efficiency"
    peers = [r for r in baseline
             if r.executor == current.executor and not r.errors]
    if len(peers) < thresholds.min_samples:
        return CheckResult(
            name, OK, f"no {current.executor} baseline yet")
    verdicts: list[str] = []
    details: list[str] = []
    base = _median([r.parallelism for r in peers])
    if base < PARALLELISM_MIN:
        details.append(
            f"baseline parallelism {base:.2f}x below gating floor")
    else:
        parallelism = current.parallelism
        verdict, detail = _collapse(parallelism, base, (
            f"parallelism {parallelism:.2f}x degraded "
            f"from baseline {base:.2f}x over {len(peers)} runs",
            f"parallelism {parallelism:.2f}x below baseline {base:.2f}x",
            f"parallelism {parallelism:.2f}x (baseline {base:.2f}x)"))
        verdicts.append(verdict)
        details.append(detail)
    rates = [r.parallelism / r.pool_size for r in peers
             if r.pool_size >= 2]
    if current.pool_size >= 2 \
            and len(rates) >= thresholds.min_samples:
        efficiency = current.parallelism / current.pool_size
        base_eff = _median(rates)
        if base_eff < EFFICIENCY_MIN:
            details.append(
                f"baseline efficiency {base_eff:.0%} below gating "
                "floor")
        else:
            verdict, detail = _collapse(efficiency, base_eff, (
                f"efficiency {efficiency:.0%} of {current.pool_size} "
                f"slot(s) degraded from baseline {base_eff:.0%} over "
                f"{len(rates)} runs",
                f"efficiency {efficiency:.0%} below baseline "
                f"{base_eff:.0%}",
                f"efficiency {efficiency:.0%} across "
                f"{current.pool_size} slot(s) (baseline {base_eff:.0%})"))
            verdicts.append(verdict)
            details.append(detail)
    return CheckResult(name, _worst(verdicts), "; ".join(details))


def check_worker_utilization(current: RunRecord,
                             baseline: Sequence[RunRecord],
                             thresholds: HealthThresholds
                             ) -> CheckResult:
    """Worker-pool health of a procpool run: imbalance + utilization.

    Two gates over the per-worker ledger telemetry.  *Imbalance* is
    absolute — one worker doing several times the mean busy time means
    the pool ran effectively serial, whatever history says.
    *Utilization drift* is relative: summed busy / (workers x wall)
    compared against the median of same-executor baseline runs, with
    a gating floor so lightly loaded flows never flake.
    """
    name = "worker-utilization"
    if not current.workers:
        return CheckResult(name, OK, "no worker telemetry recorded")
    utilization = current.worker_utilization
    imbalance = worker_imbalance(current.workers)
    busy_total = sum(stats.busy_time
                     for stats in current.workers.values())
    verdicts: list[str] = []
    details: list[str] = []
    if len(current.workers) > 1 \
            and busy_total >= WORKER_BUSY_FLOOR:
        if imbalance >= WORKER_IMBALANCE_FAIL:
            verdicts.append(FAIL)
            details.append(
                f"pool imbalance {imbalance:.1f}x: the busiest of "
                f"{len(current.workers)} workers did "
                f"{imbalance:.1f}x the mean busy time")
        elif imbalance >= WORKER_IMBALANCE_WARN:
            verdicts.append(WARN)
            details.append(
                f"pool imbalance {imbalance:.1f}x across "
                f"{len(current.workers)} workers")
    rates = [r.worker_utilization for r in baseline
             if r.executor == current.executor and r.workers
             and not r.errors]
    if len(rates) >= thresholds.min_samples:
        base = _median(rates)
        if base >= WORKER_MIN_UTILIZATION:
            verdict, detail = _collapse(utilization, base, (
                f"utilization collapsed to {utilization:.0%} "
                f"(baseline {base:.0%} over {len(rates)} runs)",
                f"utilization {utilization:.0%} below baseline "
                f"{base:.0%}", ""))
            if verdict != OK:
                verdicts.append(verdict)
                details.append(detail)
    if not verdicts:
        return CheckResult(
            name, OK,
            f"utilization {utilization:.0%} across "
            f"{len(current.workers)} worker(s), "
            f"imbalance {imbalance:.1f}x")
    return CheckResult(name, _worst(verdicts), "; ".join(details))


def check_tool_self_time_drift(current: RunRecord,
                               baseline: Sequence[RunRecord],
                               thresholds: HealthThresholds
                               ) -> CheckResult:
    """Per-tool sampled self time vs. the profiled ledger baseline.

    Runs without a ``--profile`` summary pass trivially (the check
    only ever judges like against like); the gate itself is the same
    median/MAD formula the duration-drift check uses, applied to the
    ``self_s`` figure the sampling profiler recorded.
    """
    name = "tool-self-time-drift"
    tools = (current.profile or {}).get("tools", {})
    if not tools:
        return CheckResult(name, OK, "no profile recorded")
    history: dict[str, list[float]] = {}
    for record in baseline:
        if record.errors or not record.profile:
            continue
        for tool, stats in record.profile.get("tools", {}).items():
            history.setdefault(tool, []).append(
                float(stats.get("self_s", 0.0)))
    return _tool_drift(
        name,
        {tool: float(stats.get("self_s", 0.0))
         for tool, stats in tools.items()},
        {tool: ToolBaseline.of(tool, series[-thresholds.window:],
                               thresholds.k)
         for tool, series in history.items()},
        thresholds,
        "tool self times within baseline" if history
        else "no profiled baseline yet", subject="{} self time")


def _mean_query_latency(record: RunRecord) -> float | None:
    """Mean per-statement latency of a profiled run, None without
    query telemetry."""
    query = (record.profile or {}).get("query") or {}
    count = int(query.get("count", 0))
    if not count:
        return None
    return float(query.get("total_s", 0.0)) / count


def check_query_latency_drift(current: RunRecord,
                              baseline: Sequence[RunRecord],
                              thresholds: HealthThresholds
                              ) -> CheckResult:
    """Mean history-backend statement latency vs. profiled baselines.

    The per-statement timers ride the profile summary; a lost index or
    a backend regression shows up as the whole-run mean drifting above
    the median of earlier profiled runs.
    """
    name = "query-latency-drift"
    mean = _mean_query_latency(current)
    if mean is None:
        return CheckResult(name, OK, "no query telemetry recorded")
    peers = [latency for record in baseline
             if not record.errors
             and (latency := _mean_query_latency(record)) is not None]
    peers = peers[-thresholds.window:]
    if len(peers) < thresholds.min_samples:
        return CheckResult(name, OK, "no query baseline yet")
    base = ToolBaseline.of("query", peers, thresholds.k, QUERY_ABS_FLOOR)
    verdict, detail = base.report(mean, "mean statement latency",
                                  unit="us")
    return CheckResult(name, verdict, detail or (
        f"mean statement latency {mean * 1e6:.0f}us "
        f"(baseline {base.median * 1e6:.0f}us over {len(peers)} runs)"))


HealthCheck = Callable[[RunRecord, Sequence[RunRecord],
                        HealthThresholds], CheckResult]

#: The named check catalog, in report order.
HEALTH_CHECKS: tuple[tuple[str, HealthCheck], ...] = (
    ("tool-duration-drift", check_tool_duration_drift),
    ("error-rate", check_error_rate),
    ("tool-quarantine", check_quarantine),
    ("cache-hit-rate", check_cache_hit_rate),
    ("parallelism-efficiency", check_parallelism_efficiency),
    ("worker-utilization", check_worker_utilization),
    ("tool-self-time-drift", check_tool_self_time_drift),
    ("query-latency-drift", check_query_latency_drift),
)


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------
@dataclass
class HealthReport:
    """Verdicts of every named check against the latest ledger run."""

    run: RunRecord | None
    baseline_runs: int
    checks: tuple[CheckResult, ...]

    @property
    def verdict(self) -> str:
        return _worst([c.verdict for c in self.checks])

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.verdict == FAIL)

    @property
    def exit_code(self) -> int:
        """CI contract: 1 on any failing check, 0 otherwise."""
        return 1 if self.failures else 0

    def to_dict(self) -> dict[str, object]:
        return {
            "verdict": self.verdict,
            "run": self.run.to_dict() if self.run else None,
            "baseline_runs": self.baseline_runs,
            "checks": [{"name": c.name, "verdict": c.verdict,
                        "detail": c.detail} for c in self.checks],
        }

    def render(self) -> str:
        if self.run is None:
            return "health: no runs recorded yet"
        lines = [
            f"health of run {self.run.run_id} "
            f"(flow {self.run.flow}, {self.run.executor} executor, "
            f"baseline of {self.baseline_runs} runs): "
            f"{self.verdict.upper()}",
        ]
        lines.extend("  " + check.render() for check in self.checks)
        return "\n".join(lines)


def evaluate_health(records: Sequence[RunRecord], *,
                    thresholds: HealthThresholds | None = None
                    ) -> HealthReport:
    """Judge the latest ledger record against the runs before it."""
    thresholds = thresholds if thresholds is not None \
        else HealthThresholds()
    if not records:
        return HealthReport(run=None, baseline_runs=0, checks=())
    current = records[-1]
    baseline = list(records[:-1])[-thresholds.window:]
    checks = tuple(check(current, baseline, thresholds)
                   for _, check in HEALTH_CHECKS)
    return HealthReport(run=current, baseline_runs=len(baseline),
                        checks=checks)
