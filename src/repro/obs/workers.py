"""Worker-side telemetry for the process-pool executor.

The procpool tier (PR 7) made forked workers a black box: spans were
synthesized coordinator-side from a single reported duration.  Each
reply now carries facts the coordinator adds up once: every outcome's
``started``, ``verified`` and ``duration`` on the worker's
``perf_counter``, the rss high-water and, when profiled, the samples
taken since the last reply.  This module holds what both halves share:

* the phase names (``verify`` then ``tool_body``, which an outcome's
  three timestamps bound) and :func:`peak_rss_kb`; the coordinator
  counts batches, invocations and busy time itself, from the replies;
* :class:`ClockSync` maps a worker clock onto the coordinator's; a
  forked worker reads the coordinator's own monotonic clock, so the
  procpool coordinator passes the identity ``ClockSync()``, and
  :meth:`ClockSync.estimate` serves a worker whose clock differs;
* :func:`fit_phases` performs the merge: correct each phase by the
  offset, then clamp it into the coordinator's observed dispatch
  window so the resulting spans always nest inside their parents,
  whatever the residual skew;
* :class:`WorkerRunStats` is the per-worker summary the ledger, the
  Prometheus export and ``repro health`` consume.

Everything here is stdlib-only and import-safe from both halves of the
fork; nothing imports the execution layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

#: Phase names, in the order a worker executes them.
PHASE_VERIFY = "verify"
PHASE_TOOL = "tool_body"

WORKER_PHASES: tuple[str, ...] = (
    PHASE_VERIFY,
    PHASE_TOOL,
)

#: One phase as :func:`fit_phases` takes it: (name, start, end) on the
#: worker's clock.
PhaseSample = tuple[str, float, float]


def peak_rss_kb() -> int:
    """High-water resident set size of this process, in KiB.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalize to KiB.
    Platforms without :mod:`resource` report 0 rather than fail.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    import sys
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS only
        peak //= 1024
    return int(peak)


# ---------------------------------------------------------------------------
# coordinator side: clock offset + skew-corrected merge
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ClockSync:
    """How worker timestamps map onto the coordinator clock.

    ``offset`` maps worker timestamps onto the coordinator clock:
    ``coordinator_time = worker_time - offset``.  The default is the
    identity, which is exact for a forked worker: ``perf_counter`` is
    the system-wide ``CLOCK_MONOTONIC`` on Linux, the same clock the
    coordinator's tracer reads.  :meth:`estimate` derives an offset
    from one ping for a worker whose clock differs; its midpoint
    estimate is exact to within half the round-trip (``rtt``).
    """

    offset: float = 0.0
    rtt: float = 0.0
    synced: bool = False

    @classmethod
    def estimate(cls, t_sent: float, worker_clock: float,
                 t_received: float) -> "ClockSync":
        """Midpoint offset from one ping (NTP-style, single sample)."""
        midpoint = (t_sent + t_received) / 2.0
        return cls(offset=worker_clock - midpoint,
                   rtt=max(0.0, t_received - t_sent),
                   synced=True)

    def correct(self, worker_time: float) -> float:
        """Map one worker-clock timestamp onto the coordinator clock."""
        return worker_time - self.offset


def fit_phases(phases: Sequence[PhaseSample], sync: ClockSync,
               window: tuple[float, float] | None
               ) -> tuple[PhaseSample, ...]:
    """Merge worker phases into the coordinator's timeline.

    Each phase is skew-corrected by ``sync``'s offset, then clamped
    into ``window`` — the coordinator-observed (send, receive) interval
    of the round trip that carried it.  Clamping guarantees the derived
    spans nest inside their parent task span whatever the offset
    error; intervals are truncated, never reordered, and
    ``end >= start`` always holds.
    """
    if not phases:
        return ()
    corrected = [(name, sync.correct(start), sync.correct(end))
                 for name, start, end in phases]
    if window is None:
        return tuple(corrected)
    lo, hi = window
    fitted: list[PhaseSample] = []
    for name, start, end in corrected:
        start = min(max(start, lo), hi)
        end = min(max(end, lo), hi)
        fitted.append((name, start, max(start, end)))
    return tuple(fitted)


# ---------------------------------------------------------------------------
# the per-worker run summary (ledger / health / Prometheus shape)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerRunStats:
    """One worker's contribution to one executed flow.

    ``batches``/``invocations``/``busy_time`` are counted by the
    coordinator from the worker's replies and ``rss_kb`` is the highest
    high-water those replies reported, across respawns; ``steals``,
    ``cache_hits`` and ``respawns`` are coordinator-side lane counters
    — a *steal* is a claim whose tool type differs from the lane's
    previous claim, i.e. the lane abandoned its warm streak to drain
    whatever was runnable.  ``idle_time`` is wall minus busy, clamped
    at zero.
    """

    batches: int = 0
    invocations: int = 0
    steals: int = 0
    respawns: int = 0
    cache_hits: int = 0
    busy_time: float = 0.0
    idle_time: float = 0.0
    rss_kb: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "batches": self.batches,
            "invocations": self.invocations,
            "steals": self.steals,
            "respawns": self.respawns,
            "cache_hits": self.cache_hits,
            "busy_time": self.busy_time,
            "idle_time": self.idle_time,
            "rss_kb": self.rss_kb,
        }

    @classmethod
    def from_dict(cls, spec: dict[str, Any]) -> "WorkerRunStats":
        return cls(
            batches=int(spec.get("batches", 0)),
            invocations=int(spec.get("invocations", 0)),
            steals=int(spec.get("steals", 0)),
            respawns=int(spec.get("respawns", 0)),
            cache_hits=int(spec.get("cache_hits", 0)),
            busy_time=float(spec.get("busy_time", 0.0)),
            idle_time=float(spec.get("idle_time", 0.0)),
            rss_kb=int(spec.get("rss_kb", 0)),
        )

    def render(self) -> str:
        parts = [
            f"batches={self.batches}",
            f"inv={self.invocations}",
            f"busy={self.busy_time * 1e3:.2f}ms",
            f"idle={self.idle_time * 1e3:.2f}ms",
        ]
        if self.cache_hits:
            parts.append(f"hits={self.cache_hits}")
        if self.steals:
            parts.append(f"steals={self.steals}")
        if self.respawns:
            parts.append(f"respawns={self.respawns}")
        if self.rss_kb:
            parts.append(f"rss={self.rss_kb}KiB")
        return " ".join(parts)


def worker_utilization(workers: dict[str, WorkerRunStats],
                       wall_time: float) -> float:
    """Pool utilization: summed busy time over workers x wall."""
    if not workers or wall_time <= 0:
        return 0.0
    busy = sum(stats.busy_time for stats in workers.values())
    return busy / (len(workers) * wall_time)


def worker_imbalance(workers: dict[str, WorkerRunStats]) -> float:
    """Max/mean busy-time ratio; 1.0 is a perfectly even pool."""
    if not workers:
        return 1.0
    busy = [stats.busy_time for stats in workers.values()]
    mean = sum(busy) / len(busy)
    if mean <= 0:
        return 1.0
    return max(busy) / mean


__all__ = [
    "ClockSync",
    "PHASE_TOOL",
    "PHASE_VERIFY",
    "PhaseSample",
    "WORKER_PHASES",
    "WorkerRunStats",
    "fit_phases",
    "peak_rss_kb",
    "worker_imbalance",
    "worker_utilization",
]
