"""Process-pool flow execution: real multi-core task dispatch.

The thread-based executors overlap tool *waiting* but never tool
*computing* — every Python-level encapsulation still serializes on the
GIL, so the paper's "parallel task execution ... possibly on different
machines" (section 3.3) has so far only been simulated.  This tier
dispatches the scheduler's ready set to a pool of real
``multiprocessing`` worker processes:

* the coordinator keeps every piece of shared state — the history
  database, the derivation cache, the circuit breaker, the fault
  counters, the trace — and workers receive only **invocation
  envelopes**: picklable records of tool type + encapsulation
  fingerprint + resolved input payloads, re-resolved against the
  (fork-inherited) tool registry inside the worker;
* ready invocations of one tool type are **batched** onto one worker
  round-trip (up to :data:`BATCH_MAX`), and every lane **steals** from
  the one global ready deque, so an idle worker drains whatever is
  runnable;
* each worker holds up to :data:`TRIPS_PER_WORKER` round trips, one
  per lane: while it runs one, the next waits in its pipe, so it does
  not idle while a lane records the last reply and prepares a trip.
  Under a caller with the default policy, lanes run under
  :data:`LANE_POLICY` (``SCHED_BATCH``): a reply wakes its lane
  without preempting the worker that sent it, which goes straight on
  to the trip waiting in its pipe;
* the resilience layer survives the thread→process move: calls go
  through the policy's one retry loop like on every preset, and an
  attempt is one round trip.  A watchdog timeout *kills and respawns
  the worker process* (something the thread watchdog could never do),
  a retry goes out at once with a freshly drawn fault, and
  quarantine/breaker state stays with the coordinator.

Workers never touch the history database; recording, cache population
and span emission happen coordinator-side.  A reply carries only facts
the coordinator adds up once: each outcome's start, end of verify and
duration on the clock a forked worker shares with it (the tool span's
phases), and the samples the worker's profiler took since its last
reply.  ``fork`` is required: the registry holds arbitrary closures
that cannot be pickled to a spawned child, but a forked child inherits
them for free.
"""

from __future__ import annotations

import builtins
import collections
import itertools
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Callable

from ..errors import (ExecutionError, InvocationTimeoutError, ToolError,
                      TransientToolError)
from ..history.database import HistoryDatabase
from ..obs import (COMPOSE_TOOL, PHASE_SPAN, PHASE_TOOL, PHASE_VERIFY,
                   PROCESS_EXECUTOR, WORKER_STATS, ClockSync,
                   SamplingProfiler, Span, WorkerRunStats, fit_phases,
                   worker_utilization)
from ..obs.workers import peak_rss_kb
from .encapsulation import (EncapsulationRegistry, ToolContext,
                            fingerprint_callable)
from .executor import (FlowExecutor, _Lane, _Prepared, _Run, _Unit,
                       _run_threads, run_call)
from .faults import FaultSpec
from .resilience import watchdog_budget
from .scheduler import DurationModel

#: Most same-tool-type invocations one worker round trip carries.  One
#: per trip was measured to cost ``pool_busy`` throughput, so batching
#: stays (DESIGN §12).
BATCH_MAX = 4

#: Round trips one worker holds at once, each sent by its own
#: coordinator lane: the worker starts the next as soon as it replies
#: to one, instead of waiting while its lane records that reply and
#: prepares the next trip (DESIGN §12).
TRIPS_PER_WORKER = 2

#: The scheduling policy of a lane whose caller runs the default one,
#: where the OS has it: a lane woken by its worker's reply then waits
#: for a free CPU instead of preempting that worker (DESIGN §12).
LANE_POLICY = getattr(os, "SCHED_BATCH", None)


def _scheduling() -> tuple[int, Any] | None:
    """The calling thread's scheduling policy and parameters, or None
    where the OS cannot say."""
    try:
        return os.sched_getscheduler(0), os.sched_getparam(0)
    except (AttributeError, OSError):
        return None


def _schedule(policy: int, param: Any) -> None:
    """Put the calling thread, and only it, under ``policy``; where the
    OS has no such call or refuses it, the thread keeps its own."""
    try:
        os.sched_setscheduler(0, policy, param)
    except (AttributeError, OSError):
        pass


# ---------------------------------------------------------------------------
# the wire format: what crosses the process boundary
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class InvocationEnvelope:
    """One tool (or composition) call, serialized for a worker.

    Everything a worker needs is resolved coordinator-side into plain
    picklable values; the one exception is the encapsulation itself,
    which the worker re-resolves from its fork-inherited registry and
    verifies against ``fingerprint`` — the envelope names *code by
    content*, it never ships code.  Settings that hold for the whole
    run reach the worker when it is forked (:func:`_worker_main`), so
    an envelope carries only what differs between calls.
    """

    envelope_id: int
    #: The call's context as the coordinator built it; a composition's
    #: names the composed type and no tool instance.
    ctx: ToolContext
    #: sha256 fingerprint of the encapsulation/composition callable the
    #: coordinator keyed the derivation on; the worker refuses to run
    #: different code under the same envelope.
    fingerprint: str
    #: ``(role, payload)`` pairs; a payload is one design datum or (for
    #: batch encapsulations) a list of them.
    inputs: tuple[tuple[str, Any], ...]
    #: Scripted fault to fire *inside* the worker (drawn by the
    #: coordinator, where the plan's counters live), or None.
    fault: FaultSpec | None = None


@dataclass(frozen=True)
class EnvelopeOutcome:
    """What came back: a tool result or a transportable error."""

    envelope_id: int
    ok: bool
    value: Any = None
    #: Tool run time measured inside the worker — excludes dispatch,
    #: pickling and queueing, so durations stay comparable with the
    #: in-process executors.
    duration: float = 0.0
    #: The worker's ``perf_counter`` when it began the call, which a
    #: forked worker shares with the coordinator: the time since the
    #: trip's send is the call's wait in the pipe.
    started: float = 0.0
    #: Its ``perf_counter`` when the fingerprint check ended and the
    #: tool body began: the boundary of the call's two phases.
    verified: float = 0.0
    #: The process that ran the call: after a respawn it is no longer
    #: the handle's current one.
    pid: int = 0
    error_class: str = ""
    error_message: str = ""


def _decode_error(outcome: EnvelopeOutcome, worker: str) -> BaseException:
    """Reconstruct a worker-reported error on the coordinator.

    Exceptions cross the pipe as ``(class, message)`` strings —
    arbitrary exception objects may not pickle, strings always do.
    Framework errors rebuild as their real types (so transient vs
    permanent classification survives the hop); anything unknown
    becomes a permanent :class:`~repro.errors.ToolError`.
    """
    from .. import errors as errors_module
    cls: Any = getattr(errors_module, outcome.error_class, None)
    if cls is None:
        cls = getattr(builtins, outcome.error_class, None)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        try:
            return cls(outcome.error_message)
        except Exception:  # noqa: BLE001 - odd constructor signature
            pass
    return ToolError(
        f"{outcome.error_class}: {outcome.error_message} "
        f"(raised in worker {worker})")


def _fingerprint(fn: Any, ctx: ToolContext) -> str:
    """The fingerprint of a call's code: its encapsulation's, or a
    composition's callable when ``ctx`` names no tool instance."""
    if ctx.tool_instance_id is None:
        return fingerprint_callable(fn)
    return fn.fingerprint()


# ---------------------------------------------------------------------------
# worker side (runs in the forked child)
# ---------------------------------------------------------------------------
def _run_envelope(registry: EncapsulationRegistry,
                  envelope: InvocationEnvelope,
                  profiler: SamplingProfiler | None,
                  sleep: Callable[[float], None]) -> EnvelopeOutcome:
    started = verified = time.perf_counter()
    ctx = envelope.ctx
    try:
        if ctx.tool_instance_id is None:
            fn = registry.composition(ctx.tool_type)
            code = f"composition for {ctx.tool_type!r}"
        else:
            fn = registry.resolve(ctx.tool_type, ctx.tool_instance_id)
            code = f"encapsulation {fn.name!r}"
        if _fingerprint(fn, ctx) != envelope.fingerprint:
            raise ExecutionError(
                f"{code} changed between dispatch and execution "
                "(fingerprint mismatch)")
        verified = time.perf_counter()
        value = run_call(fn, ctx, dict(envelope.inputs), envelope.fault,
                         sleep=sleep, profiler=profiler)
    except BaseException as error:  # transported, never fatal here
        return EnvelopeOutcome(
            envelope_id=envelope.envelope_id, ok=False,
            duration=time.perf_counter() - started, started=started,
            verified=verified, pid=os.getpid(),
            error_class=type(error).__name__, error_message=str(error))
    return EnvelopeOutcome(
        envelope_id=envelope.envelope_id, ok=True, value=value,
        duration=time.perf_counter() - started, started=started,
        verified=verified, pid=os.getpid())


def _worker_main(conn: multiprocessing.connection.Connection,
                 registry: EncapsulationRegistry,
                 profile_interval: float, profile_memory: bool,
                 sleep: Callable[[float], None],
                 scheduling: tuple[int, Any] | None) -> None:
    """Worker loop: receive envelope batches, send outcome batches.

    The run's settings arrive once, at fork: ``profile_interval`` (0
    runs no profiler), ``profile_memory`` (``tracemalloc`` peaks),
    ``sleep``, the fault plan's, which hang and slowdown faults use,
    and ``scheduling``, the policy of the thread that called
    ``execute()``, which the worker restores: a watchdog respawn is
    forked from a lane thread, under :data:`LANE_POLICY`.

    ``None`` is the shutdown sentinel; a broken pipe means the
    coordinator is gone and the worker simply exits.  Every batch reply
    travels as ``(outcomes, rss_kb, profile)``: the outcomes, from
    which the coordinator counts batches, invocations and busy time,
    plus what it cannot see, this process's rss high-water and, when
    the run is profiled, the samples taken since the last reply (else
    None), which the coordinator absorbs as they arrive.
    """
    if scheduling is not None:
        _schedule(*scheduling)
    profiler: SamplingProfiler | None = None
    if profile_interval > 0:
        profiler = SamplingProfiler(profile_interval,
                                    track_memory=profile_memory)
        profiler.start()
    try:
        while True:
            try:
                batch = conn.recv()
            except (EOFError, OSError):
                return
            if batch is None:
                return
            replies = [_run_envelope(registry, envelope, profiler, sleep)
                       for envelope in batch]
            facts = (peak_rss_kb(), profiler.take()
                     if profiler is not None else None)
            try:
                conn.send((replies, *facts))
            except Exception as error:  # unpicklable tool result
                conn.send(([
                    replace(reply, ok=False, value=None,
                            error_class="ExecutionError",
                            error_message=(
                                "tool result could not cross the "
                                f"process boundary: {error}"))
                    for reply in replies], *facts))
    finally:
        if profiler is not None:
            profiler.stop()


class _WorkerHandle:
    """One worker process plus its pipe, shared by its lanes.

    Dedicated ``Process`` + ``Pipe`` pairs (rather than a shared
    ``concurrent.futures`` pool) exist precisely so one hung worker can
    be killed and respawned without disturbing the others — the
    process-level analogue of abandoning a watchdogged thread.

    Each of its :data:`TRIPS_PER_WORKER` lanes has at most one round
    trip in flight.  The worker answers trips in the order they were
    sent, so the handle keeps them in that order and only the oldest,
    the head, reads the pipe.
    """

    def __init__(self, name: str, registry: EncapsulationRegistry,
                 context, settings: tuple[Any, ...],
                 profiler: SamplingProfiler | None) -> None:
        self.name = name
        self.registry = registry
        self.context = context
        #: The run's settings for :func:`_worker_main`, on every fork.
        self.settings = settings
        #: The run's profiler, which absorbs each reply's samples.
        self.profiler = profiler
        self.restarts = 0
        self.process: Any = None
        self.conn: Any = None
        #: Counted from the replies received, so they run on across
        #: respawns: replies (batches), outcomes, failed ones included
        #: (invocations), and their worker-measured durations (busy
        #: time).  A round trip no reply answered counts nowhere.
        self.batches = 0
        self.invocations = 0
        self.busy_time = 0.0
        #: The highest rss high-water any of its processes reported.
        self.rss_kb = 0
        #: The trips sent and not yet answered, oldest first.  Sends,
        #: the pipe's replacement and appends hold ``_sending``; the
        #: head's turn and pops hold ``_turn``, so a lane blocked on a
        #: full pipe never keeps the head from reading.
        self._trips: collections.deque[list[InvocationEnvelope]] = \
            collections.deque()
        self._sending = threading.Lock()
        self._turn = threading.Condition()

    def start(self) -> None:
        parent, child = self.context.Pipe()
        self.process = self.context.Process(
            target=_worker_main,
            args=(child, self.registry, *self.settings),
            name=f"repro-{self.name}", daemon=True)
        self.process.start()
        child.close()
        self.conn = parent

    def respawn(self) -> None:
        """Kill the current process and fork a fresh one (head only).

        The worker runs trips in order and the head got no reply, so
        the trips queued behind it never started: they go to the new
        process, each still waiting for its turn.
        """
        if self.process.is_alive():
            # a lane blocked sending to it fails now, freeing the pipe
            self.process.kill()
        self.process.join()
        with self._sending:
            self.conn.close()
            self.restarts += 1
            self.start()
            for trip in list(self._trips)[1:]:
                self._send(trip)

    def _send(self, trip: list[InvocationEnvelope]) -> None:
        """Write one trip (under ``_sending``).  A worker found gone is
        left to the head's receive, which respawns it and re-sends."""
        try:
            self.conn.send(trip)
        except (BrokenPipeError, OSError):
            pass

    def call(self, batch: list[InvocationEnvelope],
             timeout: float | None) -> list[EnvelopeOutcome]:
        """One round trip, answered after the trips sent before it."""
        with self._sending:
            self._send(batch)
            with self._turn:
                self._trips.append(batch)
        with self._turn:
            while self._trips[0] is not batch:
                self._turn.wait()
        try:
            return self._receive(timeout)
        finally:
            with self._turn:
                self._trips.popleft()
                self._turn.notify_all()

    def _receive(self, timeout: float | None) -> list[EnvelopeOutcome]:
        """The head's reply, counted; on trouble the worker is replaced
        first.  ``timeout`` starts now, at the trip's turn.

        * no reply within ``timeout`` -> the worker is wedged (a real
          hang, not a slow scheduler): **kill it**, respawn, raise
          :class:`~repro.errors.InvocationTimeoutError` (transient, so
          the retry budget applies);
        * EOF on receive -> the worker crashed mid-call, or was gone
          before the trip reached it: respawn, raise transient.
        """
        if timeout is not None and timeout > 0 \
                and not self.conn.poll(timeout):
            self.respawn()
            raise InvocationTimeoutError(
                f"worker {self.name} exceeded its {timeout:g}s "
                "watchdog budget; process killed and respawned")
        try:
            replies, rss_kb, profile = self.conn.recv()
        except (EOFError, OSError):
            self.respawn()
            raise TransientToolError(
                f"worker {self.name} died before replying; "
                "respawned")
        self.batches += 1
        self.invocations += len(replies)
        self.busy_time += sum(max(0.0, reply.duration)
                              for reply in replies)
        self.rss_kb = max(self.rss_kb, rss_kb)
        if profile is not None:
            self.profiler.absorb(profile)
        return replies

    def request_stop(self) -> None:
        """Send the shutdown sentinel; :meth:`stop` waits for the exit."""
        if self.conn is not None:
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass

    def stop(self) -> None:
        """Join the process, killing it if it has not exited in 2 s."""
        if self.process is not None:
            self.process.join(timeout=2.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join()
        if self.conn is not None:
            self.conn.close()


# ---------------------------------------------------------------------------
# the coordinator: the execution core's procpool preset
# ---------------------------------------------------------------------------
class ProcessFlowExecutor(FlowExecutor):
    """Executes one flow on a pool of real worker processes.

    :data:`TRIPS_PER_WORKER` lane threads per worker process claim
    ready invocations off the shared queue (work-stealing), batch
    same-tool-type claims onto one round trip, and record all results
    into the (single-process) history database; a worker runs one
    lane's trip while its other lane records and prepares.  A lane
    runs under :data:`LANE_POLICY` when the caller runs the default
    policy, so the reply that wakes it never preempts the worker; the
    caller and the workers keep the caller's policy.  Requires the
    ``fork`` start method — the tool registry holds closures only a
    forked child can inherit.
    """

    kind = PROCESS_EXECUTOR
    lane_spans = True

    def __init__(self, db: HistoryDatabase,
                 registry: EncapsulationRegistry, *, workers: int = 2,
                 durations: DurationModel | None = None,
                 **settings: Any) -> None:
        """``settings`` are :class:`FlowExecutor`'s keywords."""
        if workers < 1:
            raise ExecutionError(
                f"need at least one worker process, got {workers}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ExecutionError(
                "the procpool executor requires the 'fork' start "
                "method (tool encapsulations hold closures that "
                "cannot be pickled to a spawned worker); this "
                "platform offers only: "
                + ", ".join(multiprocessing.get_all_start_methods()))
        super().__init__(db, registry, machine="", **settings)
        self.workers = workers
        self.durations = durations if durations is not None \
            else DurationModel()
        # Coordinator-side aggregate: workers run their own in-process
        # samplers (a coordinator thread cannot see worker stacks) and
        # every reply carries the samples taken since the last; the
        # handles absorb them as they arrive, and busy time is clamped
        # to the fitted tool-phase durations before the ledger
        # snapshot.
        self._profile_caps: dict[str, float] = {}
        self._profile_lock = threading.Lock()
        self._context = multiprocessing.get_context("fork")
        self._envelope_ids = itertools.count(1)
        # The current run's lanes, which the claim rule counts.
        self._lanes: list[_Lane] = []

    @property
    def lanes(self) -> int:
        """The pool is its workers, however many lanes each has."""
        return self.workers

    def _run_attributes(self, run: _Run) -> dict[str, Any]:
        return {"scheduler": "procpool", "workers": self.workers}

    # ------------------------------------------------------------------
    # lanes: TRIPS_PER_WORKER per worker process
    # ------------------------------------------------------------------
    def _run_lanes(self, run: _Run) -> None:
        self._profile_caps = {}
        profiler = self.profiler
        settings = (profiler.interval if profiler is not None else 0.0,
                    profiler is not None and profiler.track_memory,
                    self.faults.sleep if self.faults is not None
                    else time.sleep, _scheduling())
        # Fork the whole pool BEFORE any lane thread exists: forking a
        # single-threaded coordinator is safe; forking one with live
        # lanes would snapshot their lock states into the child.  The
        # profiler's thread starts with the first bracketed body, and
        # this coordinator brackets none.
        handles = [_WorkerHandle(f"worker{i}", self.registry,
                                 self._context, settings, profiler)
                   for i in range(self.workers)]
        for handle in handles:
            handle.start()
        lanes = self._lanes = [_Lane(handle.name, handle)
                               for handle in handles
                               for _ in range(TRIPS_PER_WORKER)]
        try:
            _run_threads([lambda lane=lane: self._lane_main(run, lane)
                          for lane in lanes])
        finally:
            # every worker is told first, so they all exit at once
            for handle in handles:
                handle.request_stop()
            for handle in handles:
                handle.stop()
        wall = time.perf_counter() - run.began
        run.workers = self._collect_worker_stats(handles, lanes, wall)
        if profiler is not None:
            # A retried call's failed attempts were profiled but ran
            # outside every traced tool span: clamping busy time to the
            # fitted tool-phase durations keeps self time inside those
            # spans.  Runs before the ledger snapshot.
            profiler.clamp_to(self._profile_caps)
        run.span.set(restarts=sum(h.restarts for h in handles),
                     utilization=round(
                         worker_utilization(run.workers, wall), 4))
        self._emit_worker_stats(run.graph, run.workers, wall)

    def _lane_main(self, run: _Run, lane: _Lane) -> None:
        """A lane that inherited the default policy drains under
        :data:`LANE_POLICY`.  Under any other policy a woken lane
        already waits its turn behind a running worker, so it stays."""
        current = _scheduling()
        if LANE_POLICY is not None and current is not None \
                and current[0] == os.SCHED_OTHER:
            _schedule(LANE_POLICY, current[1])
        super()._lane_main(run, lane)

    def _lane_attributes(self, lane: _Lane) -> dict[str, Any]:
        return {"restarts": lane.host.restarts, "steals": lane.steals,
                "cache_hits": lane.cache_hits}

    def _collect_worker_stats(self, handles: list[_WorkerHandle],
                              lanes: list[_Lane], wall: float
                              ) -> dict[str, WorkerRunStats]:
        """Per worker: its handle's reply counters, and the lane
        counters summed over its lanes."""
        stats: dict[str, WorkerRunStats] = {}
        for handle in handles:
            mine = [lane for lane in lanes if lane.host is handle]
            stats[handle.name] = WorkerRunStats(
                batches=handle.batches,
                invocations=handle.invocations,
                steals=sum(lane.steals for lane in mine),
                respawns=handle.restarts,
                cache_hits=sum(lane.cache_hits for lane in mine),
                busy_time=round(handle.busy_time, 6),
                idle_time=round(max(0.0, wall - handle.busy_time), 6),
                rss_kb=handle.rss_kb)
        return stats

    def _emit_worker_stats(self, graph, workers: dict[str, WorkerRunStats],
                           wall: float) -> None:
        if not self.bus.enabled:
            return
        for name in sorted(workers):
            stats = workers[name]
            self.bus.emit(
                WORKER_STATS, flow=graph.name, machine=name,
                duration=stats.busy_time,
                payload={"batches": stats.batches,
                         "invocations": stats.invocations,
                         "steals": stats.steals,
                         "respawns": stats.respawns,
                         "cache_hits": stats.cache_hits,
                         "busy": stats.busy_time,
                         "idle": stats.idle_time,
                         "rss_kb": stats.rss_kb,
                         "utilization": round(
                             stats.busy_time / wall, 4)
                         if wall > 0 else 0.0})

    # ------------------------------------------------------------------
    # claim: same-tool-type batches under a fair-share cap
    # ------------------------------------------------------------------
    def _busy_workers(self) -> set[_WorkerHandle]:
        """The workers with a claim in flight (under the run lock)."""
        return {lane.host for lane in self._lanes if lane.busy}

    def _may_claim(self, run: _Run, lane: _Lane) -> bool:
        """A lane whose worker already has a claim in flight queues
        another behind it only when the ready set leaves one invocation
        for every worker that has none; else an idle worker would wait
        while this one ran that work later (DESIGN §12)."""
        busy = self._busy_workers()
        return lane.host not in busy \
            or len(run.ready) > self.workers - len(busy)

    def _claim(self, run: _Run, lane: _Lane) -> list[list[int]]:
        ready, nodes = run.ready, run.nodes
        claimed = [ready.pop(0)]
        tool_type = nodes[claimed[0]].tool_type
        # Steal accounting: this lane switched tool types to drain
        # whatever was runnable off the shared queue.
        if lane.last_tool_type is not None \
                and tool_type != lane.last_tool_type:
            lane.steals += 1
        lane.last_tool_type = tool_type
        # Batch greed is capped at this lane's fair share of the ready
        # set: amortize round trips only when there is more ready work
        # than workers — otherwise batching would serialize exactly the
        # parallelism it exists to exploit.  A trip queued behind its
        # worker's running one takes one invocation: that covers the
        # worker's wait for the other lane, and more would be work an
        # idle worker can no longer steal.  A watchdog budget is per
        # call, so budgeted invocations are never batched.
        share = -(-(len(ready) + 1) // self.workers)
        limit = 1 if lane.host in self._busy_workers() \
            else min(BATCH_MAX, max(1, share))
        if watchdog_budget(self.resilience,
                           tool_type or COMPOSE_TOOL) is None:
            position = 0
            while position < len(ready) and len(claimed) < limit:
                if nodes[ready[position]].tool_type == tool_type:
                    claimed.append(ready.pop(position))
                else:
                    position += 1
        return [claimed]

    # ------------------------------------------------------------------
    # attempts: one worker round trip each
    # ------------------------------------------------------------------
    def _trips(self, calls: list[_Unit]) -> list[list[_Unit]]:
        """Calls without a watchdog budget share one round trip; the
        budget is per call, so a budgeted call rides alone."""
        if all(watchdog_budget(self.resilience, call.tool_type) is None
               for call in calls):
            return [calls]
        return [[call] for call in calls]

    def _attempt(self, run: _Run, lane: _Lane,
                 trip: list[_Unit]) -> list[BaseException | None]:
        """One round trip for the calls aboard, each with a freshly
        drawn fault; a transport failure is one failed attempt for
        every one of them."""
        handle = lane.host
        envelopes = [InvocationEnvelope(
            envelope_id=next(self._envelope_ids), ctx=unit.ctx,
            fingerprint=_fingerprint(unit.fn, unit.ctx),
            inputs=tuple(sorted(unit.inputs.items())),
            fault=self._fault(unit)) for unit in trip]
        sent_at, sent = self.tracer.clock(), time.perf_counter()
        try:
            outcomes = handle.call(envelopes, watchdog_budget(
                self.resilience, trip[0].tool_type))
        except BaseException as error:
            return [error] * len(trip)
        received_at = self.tracer.clock()
        by_id = {outcome.envelope_id: outcome for outcome in outcomes}
        errors: list[BaseException | None] = []
        for unit, envelope in zip(trip, envelopes):
            unit.window = (sent_at, received_at)
            outcome = by_id.get(envelope.envelope_id)
            if outcome is None:
                errors.append(TransientToolError(
                    f"worker {handle.name} returned no outcome for "
                    f"envelope {envelope.envelope_id}"))
                continue
            # the worker's clock is this one: from the send to the
            # call's start it waited behind earlier trips and mates
            unit.batch_offset = outcome.started - sent
            if outcome.ok:
                unit.outcome, unit.value = outcome, outcome.value
                unit.duration = outcome.duration
            errors.append(None if outcome.ok
                          else _decode_error(outcome, handle.name))
        return errors

    # ------------------------------------------------------------------
    # record hooks: worker facts and phase spans on tool spans
    # ------------------------------------------------------------------
    def _duration(self, prep: _Prepared) -> float:
        """Worker-measured tool time: excludes dispatch, pickling and
        queueing, so durations stay comparable across presets."""
        return sum(unit.duration for unit in prep.units)

    def _trace_unit(self, lane: _Lane, prep: _Prepared, unit: _Unit,
                    span: Span) -> None:
        super()._trace_unit(lane, prep, unit, span)
        span.set(worker=lane.name, worker_pid=unit.outcome.pid,
                 tool_duration=round(unit.outcome.duration, 6))
        self._merge_phases(lane.name, unit, span)

    def _merge_phases(self, worker: str, unit: _Unit,
                      tool_span: Span) -> None:
        """Graft the call's two phases under the tool span.

        The outcome's ``started``, ``verified`` and end bound them.  A
        forked worker reads ``perf_counter``, the coordinator's own
        clock, so they need no offset; clamping them into the
        coordinator-observed dispatch window keeps both inside their
        parent.  The tool span's start is pulled back to the verify
        phase's so the children stay contained.
        """
        outcome = unit.outcome
        ended = outcome.started + outcome.duration
        verify, body = fit_phases(
            ((PHASE_VERIFY, outcome.started, outcome.verified),
             (PHASE_TOOL, outcome.verified, ended)),
            ClockSync(), unit.window)
        if self.profiler is not None:
            # The fitted tool-body phases are contained in the merged
            # tool spans, so their sum per tool type caps worker-sampled
            # busy time (clamped once, after all lanes join).
            with self._profile_lock:
                caps = self._profile_caps
                caps[unit.tool_type] = \
                    caps.get(unit.tool_type, 0.0) + body[2] - body[1]
        for name, start, end in (verify, body):
            phase_span = self.tracer.start_span(
                f"{name}:{unit.tool_type}", PHASE_SPAN,
                parent=tool_span.context,
                attributes={"worker": worker, "phase": name},
                start=start)
            self.tracer.finish(phase_span, end=end)
        tool_span.start = min(tool_span.start, verify[1])


__all__ = [
    "EnvelopeOutcome",
    "InvocationEnvelope",
    "ProcessFlowExecutor",
]
