"""Flow execution: turning bound task graphs into design history.

Section 3.3: *"Dynamically defined flows easily allow for automatic task
sequencing (flow automation) because tool and data dependencies are
specified in the task schema."*  The executor walks a task graph in
dependency order, runs one tool call per coalesced
:class:`~repro.core.taskgraph.TaskInvocation` (Fig. 5's multi-output
subtasks), fans out over multi-instance selections (section 4.1), and
records every created object in the history database with its derivation
record — which is the entire persistence story of the paper.

Sub-flows run by passing ``targets``: only the invocations in the targets'
supplier subtrees execute (*"a subflow may be run at any stage as long as
its dependencies are satisfied independently of the remainder of the
flow"*).

This module is the one execution core every ``--executor`` preset
drives:

* **the run lifecycle** (:meth:`FlowExecutor.execute`): cache-policy
  override, readiness check, ``force`` reset, the root span, the
  ``flow_started`` / ``flow_finished`` / ``execution_failed`` events, one
  shared-memo publish and one ledger record on success and on error,
  quarantined tools, wall time;
* **the invocation pipeline**, prepare → dispatch → record, shared by
  tool and composition invocations: prepare resolves inputs, computes
  derivation keys and takes cache hits; dispatch drives the cold calls
  through the policy's one retry loop, each attempt through one call
  body (:func:`run_call`); record writes history, stores in the cache
  and builds the report entries with their spans and events;
* **the ready-queue drain loop** over the invocation graph's redundant
  predecessor/successor maps.

:class:`FlowExecutor` is the sequential preset: one lane, drained inline
on the caller's thread in the flow's topological order.  The parallel,
scheduled and procpool presets subclass it and differ only in their lane
count, how a lane claims work (a whole disjoint branch, one invocation,
a same-tool-type batch), how calls share an attempt and where it runs
(inline, or one worker round trip), and procpool's worker hooks.
"""

from __future__ import annotations

import bisect
import itertools
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Sequence

from ..core.flow import DynamicFlow
from ..core.taskgraph import TaskGraph, TaskInvocation
from ..dag import dependencies, longest
from ..errors import ExecutionError
from ..history.database import HistoryDatabase
from ..history.instance import DerivationRecord
from ..obs import (CACHE_HIT, CACHE_MISS, CACHE_SPAN, COMPOSE_SPAN,
                   COMPOSE_TOOL, COMPOSITION_RUN, EXECUTION_FAILED,
                   FLOW_FINISHED, FLOW_STARTED, NO_OP_BUS, NO_OP_TRACER,
                   NODE_READY, RUN_SPAN, SEQUENTIAL_EXECUTOR, TASK_SPAN,
                   TOOL_FINISHED, TOOL_INVOKED, TOOL_QUARANTINED,
                   TOOL_RETRIED, TOOL_SPAN, TOOL_TIMED_OUT, WAVE_SPAN,
                   EventBus, RunLedger, Span, Tracer)
from .cache import (CACHE_OFF, CACHE_READWRITE, CACHE_REUSE,
                    DerivationCache, normalize_policy)
from .encapsulation import EncapsulationRegistry, ToolContext
from .faults import FaultPlan, FaultSpec, run_with_fault
from .resilience import (UPSTREAM, Call, InvocationFailure,
                         ResiliencePolicy, annotate_error,
                         call_with_timeout, failure_entry,
                         watchdog_budget)


@dataclass
class InvocationResult:
    """Report entry for one executed task invocation."""

    invocation_id: str
    tool_type: str | None
    tool_instances: tuple[str, ...]
    encapsulation: str
    runs: int
    created: tuple[str, ...]
    outputs_by_node: dict[str, tuple[str, ...]]
    duration: float
    machine: str = "local"
    #: Time the invocation sat ready (dependencies satisfied) before a
    #: lane dispatched it — on every preset, a single lane included —
    #: and always separate from ``duration``.
    queue_wait: float = 0.0
    #: Transient failures cured by the resilience policy before this
    #: invocation succeeded (``timeouts`` counts how many of those
    #: attempts were watchdog abandonments).
    retries: int = 0
    timeouts: int = 0


@dataclass
class CachedInvocation:
    """Report entry for a task invocation coalesced from the cache.

    ``hits`` counts the remembered tool runs reused (one per input
    combination); ``saved`` is the tool time those very runs took, as
    their memo records carry it, and ``bytes_saved`` the canonical size
    of the design data that did not have to be recreated.
    """

    tool_type: str | None
    outputs: tuple[str, ...]
    hits: int
    instances: tuple[str, ...]
    outputs_by_node: dict[str, tuple[str, ...]]
    saved: float
    bytes_saved: int
    machine: str = "local"


@dataclass
class ExecutionReport:
    """Everything that happened during one ``execute()`` call.

    ``wall_time`` is the elapsed clock time of the whole ``execute()``
    call; ``serial_time`` sums the individual invocation durations.  For
    a sequential run the two are close; for parallel lanes the gap is
    the realized speedup.
    """

    flow_name: str
    results: list[InvocationResult] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    cached: list[CachedInvocation] = field(default_factory=list)
    wall_time: float = 0.0
    #: Invocations that failed for good under graceful degradation —
    #: empty unless a :class:`ResiliencePolicy` with ``degrade=True``
    #: turned a fatal error into a partial report.
    failures: list[InvocationFailure] = field(default_factory=list)
    #: Tool types the circuit breaker had quarantined by run end.
    quarantined: list[str] = field(default_factory=list)
    #: The run's ledger record id; empty when no ledger is attached or
    #: the append failed.
    run_id: str = ""

    @property
    def created(self) -> tuple[str, ...]:
        return tuple(itertools.chain.from_iterable(
            r.created for r in self.results))

    @property
    def runs(self) -> int:
        return sum(r.runs for r in self.results)

    @property
    def cache_hits(self) -> int:
        """Tool runs coalesced from the derivation cache."""
        return sum(c.hits for c in self.cached)

    @property
    def reused(self) -> tuple[str, ...]:
        """Instance ids served from the cache instead of re-derived."""
        return tuple(itertools.chain.from_iterable(
            c.instances for c in self.cached))

    @property
    def time_saved(self) -> float:
        """Estimated tool time the cache hits avoided."""
        return sum(c.saved for c in self.cached)

    @property
    def bytes_saved(self) -> int:
        """Canonical data bytes the cache hits avoided recreating."""
        return sum(c.bytes_saved for c in self.cached)

    @property
    def serial_time(self) -> float:
        """Total tool/composition time, as if run on one machine."""
        return sum(r.duration for r in self.results)

    @property
    def queue_wait_time(self) -> float:
        """Total time invocations spent ready but waiting for a machine.

        Reported separately from execute time: ``serial_time`` counts
        only the work itself, so scheduling pressure is visible instead
        of being conflated into tool durations.
        """
        return sum(r.queue_wait for r in self.results)

    @property
    def speedup(self) -> float:
        """Realized serial-time / wall-time ratio (1.0 when unknown)."""
        return self.serial_time / self.wall_time if self.wall_time else 1.0

    @property
    def retries(self) -> int:
        """Transient failures retried away across all invocations."""
        return (sum(r.retries for r in self.results)
                + sum(f.retries for f in self.failures))

    @property
    def timeouts(self) -> int:
        """Watchdog abandonments across all invocations."""
        return (sum(r.timeouts for r in self.results)
                + sum(f.timeouts for f in self.failures))

    @property
    def failed(self) -> bool:
        """True when a degraded run left invocations unexecuted."""
        return bool(self.failures)

    def created_of_node(self, node_id: str) -> tuple[str, ...]:
        out: tuple[str, ...] = ()
        for cached in self.cached:
            if node_id in cached.outputs_by_node:
                out += cached.outputs_by_node[node_id]
        for result in self.results:
            if node_id in result.outputs_by_node:
                out += result.outputs_by_node[node_id]
        return out

    def merge(self, other: "ExecutionReport") -> None:
        """Fold another report (e.g. one parallel lane) into this one.

        Lanes overlap in time, so wall-clock aggregates by ``max`` —
        summing would silently report serial time and erase the very
        speedup the parallel executors exist to deliver.  (Serial time
        needs no special handling: it derives from the merged results.)
        """
        self.results.extend(other.results)
        self.skipped.extend(other.skipped)
        self.cached.extend(other.cached)
        self.failures.extend(other.failures)
        self.quarantined = sorted(
            set(self.quarantined) | set(other.quarantined))
        self.wall_time = max(self.wall_time, other.wall_time)


@dataclass(frozen=True)
class _InvocationNode:
    """An invocation plus its dependency bookkeeping."""

    index: int
    invocation: TaskInvocation
    tool_type: str | None
    predecessors: tuple[int, ...]
    successors: tuple[int, ...]
    duration: float


def _invocation_graph(graph: TaskGraph,
                      durations: Any = None) -> list[_InvocationNode]:
    """The flow's invocations with redundant dependency maps.

    Every invocation knows both the invocations it waits on and the ones
    waiting on it, so the ready queue releases successors without a
    search.  ``durations`` (a ``DurationModel``) prices each invocation
    for schedule planning; without it every duration is 0.
    """
    invocations = graph.invocations()
    # inputs: the data suppliers and the tool node (None, which no
    # invocation produces, for a composition)
    predecessors, successors = dependencies(
        [invocation.outputs for invocation in invocations],
        [invocation.input_nodes + (invocation.tool_node,)
         for invocation in invocations])
    nodes = []
    for index, invocation in enumerate(invocations):
        tool_type = (graph.node(invocation.tool_node).entity_type
                     if invocation.tool_node is not None else None)
        nodes.append(_InvocationNode(
            index, invocation, tool_type,
            tuple(predecessors[index]), tuple(successors[index]),
            durations.estimate(tool_type) if durations is not None
            else 0.0))
    return nodes


@dataclass(eq=False)
class _Lane:
    """One lane draining a run, with the counters its spans report."""

    name: str
    #: The pool machine or worker handle the lane runs on, if any.
    host: Any = None
    claimed: int = 0
    #: Claimed invocations that ran at least one tool call.
    executed: int = 0
    cache_hits: int = 0
    #: Claims whose tool type differs from the lane's previous claim.
    steals: int = 0
    last_tool_type: str | None = None
    #: The lane holds a claim it has not yet marked done (run lock).
    busy: bool = False


@dataclass(eq=False)
class _Run:
    """One ``execute()`` call: the ready queue its lanes drain."""

    graph: TaskGraph
    report: ExecutionReport
    nodes: list[_InvocationNode]
    #: Node ids in the targets' supplier subtrees.
    needed: set[str]
    #: Needed invocations in the flow's topological order, and each
    #: one's position in it; the ready queue stays sorted by position.
    order: list[int]
    rank: dict[int, int]
    force: bool
    degrade: bool
    cache: DerivationCache | None
    reads: bool
    writes: bool
    #: perf_counter at the start of ``execute()``.
    began: float
    span: Any
    #: Dependency depth of each invocation (its scheduler "wave").
    wave: dict[int, int] = field(default_factory=dict)
    pending: dict[int, int] = field(default_factory=dict)
    ready: list[int] = field(default_factory=list)
    #: When each invocation was released into the ready queue.
    ready_at: dict[int, float] = field(default_factory=dict)
    done: set[int] = field(default_factory=set)
    errors: list[BaseException] = field(default_factory=list)
    #: Outputs of invocations lost under degradation.
    failed_nodes: set[str] = field(default_factory=set)
    lock: threading.Condition = field(default_factory=threading.Condition)
    #: Preset facts for the run span and ``flow_started``.
    attributes: dict[str, Any] = field(default_factory=dict)
    #: True once ``flow_started`` went out.
    announced: bool = False
    #: Parallel preset: the disjoint branch holding each invocation.
    branches: dict[int, frozenset[str]] = field(default_factory=dict)
    #: Procpool preset: per-worker statistics for the ledger.
    workers: dict[str, Any] | None = None

    @property
    def finished(self) -> bool:
        return len(self.done) >= len(self.order)


@dataclass(eq=False, kw_only=True)
class _Unit(Call):
    """One cold tool or composition call of a prepared invocation.

    Its ``tool_type`` is the one events, faults and the policy see
    (COMPOSE_TOOL for a composition).
    """

    #: The tool's encapsulation, or the composition callable.
    fn: Any
    #: Tool context; a composition's names the composed type and no
    #: tool instance.
    ctx: ToolContext
    #: Comma-joined output node ids of the invocation, for events.
    node: str
    inputs: dict[str, Any]
    combo: dict[str, Any]
    cache_key: str | None
    #: Tool time of the attempt that produced ``value``.
    duration: float = 0.0
    #: Tracer-clock start of an inline call's first attempt (tool spans
    #: begin there).
    started: float | None = None
    #: Time from its round trip's send until the worker started the
    #: call: the wait in the worker's pipe, behind the trips sent
    #: before it and behind its trip-mates.  It counts toward queue
    #: wait, not duration.
    batch_offset: float = 0.0
    #: Coordinator-observed (send, receive) interval of the round trip
    #: that produced ``outcome``, on the tracer clock — the clamp
    #: window for the worker's phase spans.  Retries overwrite it, so
    #: the last (successful) attempt wins.
    window: tuple[float, float] | None = None
    #: The worker's reply (procpool).
    outcome: Any = None


@dataclass(eq=False)
class _Prepared:
    """One claimed invocation after its cache lookups, before dispatch."""

    node: _InvocationNode
    output_nodes: list[Any]
    output_types: tuple[str, ...]
    #: Tool type as events see it (COMPOSE_TOOL for a composition).
    tool_type: str
    queue_wait: float
    #: When prepare began: perf_counter, and the tracer clock.
    started: float
    span_start: float
    units: list[_Unit] = field(default_factory=list)
    tool_ids: tuple[str, ...] = ()
    encapsulation_name: str = ""
    invocation_id: str | None = None
    hits: int = 0
    saved: float = 0.0
    bytes_saved: int = 0
    reused_all: list[str] = field(default_factory=list)
    reused: dict[str, list[str]] = field(default_factory=dict)


def _run_threads(targets: Sequence[Callable[[], None]]) -> None:
    """Run every target on its own thread and wait for all of them."""
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class FlowExecutor:
    """Executes dynamically defined flows against a history database.

    The execution core and its sequential preset: one lane, drained on
    the caller's thread in the flow's topological order.
    """

    #: The ledger's executor name for this preset.
    kind = SEQUENTIAL_EXECUTOR
    #: Open one ``lane:<name>`` span per lane for the whole run.
    lane_spans = False

    def __init__(self, db: HistoryDatabase,
                 registry: EncapsulationRegistry, *, user: str = "",
                 machine: str = "local",
                 bus: EventBus | None = None,
                 cache: DerivationCache | None = None,
                 cache_policy: str = CACHE_READWRITE,
                 tracer: Tracer | None = None,
                 ledger: RunLedger | None = None,
                 resilience: ResiliencePolicy | None = None,
                 faults: FaultPlan | None = None,
                 profiler=None) -> None:
        self.db = db
        self.registry = registry
        self.user = user
        self.machine = machine
        # Serializes history-database access across this executor's
        # lanes; tool code runs outside it.
        self._lock = threading.Lock()
        # Without sinks the shared no-op bus makes every emit an early
        # return, so uninstrumented execution stays on the fast path.
        self.bus = bus if bus is not None else NO_OP_BUS
        # Likewise for spans: without sinks the tracer hands out the
        # shared null span and tracing costs one truth test.
        self.tracer = tracer if tracer is not None else NO_OP_TRACER
        # Incremental re-execution: with a cache attached, remembered
        # tool runs (same tool, code and input content) are reused
        # instead of re-executed, subject to the policy.
        self.cache = cache
        self.cache_policy = normalize_policy(
            cache_policy if cache is not None else CACHE_OFF)
        # Longitudinal observability: with a ledger attached, every
        # execute() call appends exactly one RunRecord, whatever the
        # number of lanes and whether the run succeeds.
        self.ledger = ledger
        # Resilience: with a policy attached, every encapsulation and
        # composition call runs under its retry/timeout/quarantine
        # machinery.  All lanes of a run share the one policy object,
        # so breaker state is global to the run.  Without a policy the
        # first tool exception aborts the flow.
        self.resilience = resilience
        # Fault injection: a FaultPlan scripts failures at the same
        # boundary the policy guards, so chaos drills exercise the real
        # retry path.  None in production.
        self.faults = faults
        # Profiling: a SamplingProfiler brackets every tool body so
        # the sweep thread can attribute stacks (and busy time) to the
        # tool type, whatever thread ends up executing the call.
        self.profiler = profiler
        # Presets that plan schedules learn tool durations from every
        # finished run (a DurationModel); None here.
        self.durations: Any = None

    @property
    def lanes(self) -> int:
        """How many lanes drain a run (the ledger's pool size)."""
        return 1

    # ------------------------------------------------------------------
    # public API: the run lifecycle
    # ------------------------------------------------------------------
    def execute(self, flow: TaskGraph | DynamicFlow,
                targets: Sequence[str] | None = None, *,
                force: bool = False,
                cache: str | None = None) -> ExecutionReport:
        """Run a flow (or the sub-flow reaching ``targets``).

        Already-executed nodes (with ``produced`` results) and bound
        nodes are reused unless ``force`` re-runs every invocation.
        ``cache`` overrides the executor's cache policy for this call
        only (``"off"`` / ``"reuse"`` / ``"readwrite"``): the run's
        reads, writes, span and ledger record follow it, and
        ``cache_policy`` keeps its value.
        """
        graph = flow.graph if isinstance(flow, DynamicFlow) else flow
        order = graph.validate()
        policy = (self.cache_policy if cache is None
                  else normalize_policy(cache))
        if self.cache is None and policy != CACHE_OFF:
            raise ExecutionError(
                f"cache policy {policy!r} requires a DerivationCache; "
                "construct the executor with cache=... (or use "
                "DesignEnvironment.run)")
        began = time.perf_counter()
        report = ExecutionReport(graph.name)
        run: _Run | None = None
        with self.tracer.span(
                f"run:{graph.name}", RUN_SPAN,
                attributes={"flow": graph.name, "cache": policy,
                            "targets": sorted(targets or ()),
                            "force": force}) as run_span:
            try:
                run = self._plan(graph, order, targets, force, policy,
                                 report, began, run_span)
                self._check_ready(graph, run.needed)
                self._start(run, targets)
                if run.order:
                    try:
                        self._run_lanes(run)
                    finally:
                        # one memo append per run, failed ones included
                        if run.writes:
                            run.cache.publish()
                if self.resilience is not None:
                    report.quarantined = sorted(
                        set(report.quarantined)
                        | set(self.resilience.quarantined()))
                if self.durations is not None:
                    self.durations.observe_report(report)
                if run.errors:
                    raise run.errors[0]
            except BaseException as error:
                report.wall_time = time.perf_counter() - began
                if run is not None and run.announced:
                    self.bus.emit(EXECUTION_FAILED, flow=graph.name,
                                  machine=self.machine,
                                  payload={"error": str(error)})
                self._ledger_record(report, run_span, run, policy, error)
                raise
            report.wall_time = time.perf_counter() - began
            summary: dict[str, Any] = {
                "runs": report.runs, "created": len(report.created),
                "skipped": len(report.skipped),
                "cache_hits": report.cache_hits,
                "queue_wait": round(report.queue_wait_time, 6)}
            if report.failures:
                summary["failures"] = len(report.failures)
            run_span.set(**summary)
            self.bus.emit(FLOW_FINISHED, flow=graph.name,
                          machine=self.machine, duration=report.wall_time,
                          payload={**summary, "lanes": self.lanes,
                                   "serial_time": report.serial_time,
                                   "speedup": round(report.speedup, 3)})
        self._ledger_record(report, run_span, run, policy)
        return report

    def execute_node(self, flow: TaskGraph | DynamicFlow,
                     node_id: str, *, force: bool = False
                     ) -> ExecutionReport:
        """Run just the sub-flow producing one node."""
        return self.execute(flow, targets=[node_id], force=force)

    def _plan(self, graph: TaskGraph, order: Sequence[str],
              targets: Sequence[str] | None, force: bool, policy: str,
              report: ExecutionReport, began: float, span: Any) -> _Run:
        """Seed the ready queue with the needed invocations; ``order``
        is the graph's topological order (from its validation) and
        ``policy`` the run's cache policy."""
        needed = self._needed_nodes(graph, targets)
        position = {node_id: index for index, node_id in enumerate(order)}
        nodes = _invocation_graph(graph)
        rank: dict[int, int] = {}
        for node in nodes:
            positions = [position[output]
                         for output in node.invocation.outputs
                         if output in needed]
            if positions:
                rank[node.index] = min(positions)
        cache = self.cache if policy != CACHE_OFF else None
        run = _Run(
            graph=graph, report=report, nodes=nodes, needed=needed,
            order=sorted(rank, key=rank.__getitem__), rank=rank,
            force=force,
            degrade=(self.resilience is not None
                     and self.resilience.degrade),
            cache=cache,
            reads=(cache is not None and not force
                   and policy in (CACHE_REUSE, CACHE_READWRITE)),
            writes=cache is not None and policy == CACHE_READWRITE,
            began=began, span=span)
        chains = longest(run.order, lambda index: nodes[index].predecessors,
                         lambda index: 1)
        for index in run.order:
            preds = nodes[index].predecessors
            run.pending[index] = len(preds)
            run.wave[index] = chains[index][0] - 1
            if not preds:
                run.ready.append(index)
        run.attributes = self._run_attributes(run)
        span.set(invocations=len(run.order), **run.attributes)
        return run

    def _run_attributes(self, run: _Run) -> dict[str, Any]:
        """Preset facts for the run span and ``flow_started``."""
        return {"machine": self.machine}

    def _start(self, run: _Run, targets: Sequence[str] | None) -> None:
        """Announce the run, apply ``force``, release the ready set."""
        graph = run.graph
        run.announced = True
        if self.bus.enabled:
            self.bus.emit(FLOW_STARTED, flow=graph.name,
                          machine=self.machine,
                          payload={"nodes": len(run.needed),
                                   "invocations": len(run.order),
                                   "targets": sorted(targets or ()),
                                   "force": run.force,
                                   **run.attributes})
        if run.force:
            # drop previous results so re-runs do not fan out over them
            for node_id in run.needed:
                if graph.suppliers(node_id):
                    graph.node(node_id).produced = ()
        run.ready_at = dict.fromkeys(run.ready, time.perf_counter())

    def _ledger_record(self, report: ExecutionReport, span: Any,
                       run: _Run | None, policy: str,
                       error: BaseException | None = None) -> None:
        """Append this run to the ledger, when one is attached."""
        if self.ledger is None:
            return
        context = span.context
        record = self.ledger.record_run(
            report, executor=self.kind, cache_policy=policy,
            trace_id=context.trace_id if context is not None else "",
            error=error,
            workers=run.workers if run is not None else None,
            profile=(self.profiler.summary()
                     if self.profiler is not None else None),
            pool_size=self.lanes)
        if record is not None:
            report.run_id = record.run_id

    def _needed_nodes(self, graph: TaskGraph,
                      targets: Sequence[str] | None) -> set[str]:
        if targets is None:
            return set(graph.node_ids())
        needed: set[str] = set()
        for target in targets:
            needed |= graph.subtree(target)
        return needed

    def _check_ready(self, graph: TaskGraph, needed: set[str]) -> None:
        unbound = [
            str(graph.node(node_id)) for node_id in sorted(needed)
            if not graph.suppliers(node_id)
            and not graph.node(node_id).results()
        ]
        if unbound:
            raise ExecutionError(
                "flow is not ready: select instances for leaf nodes "
                + ", ".join(unbound))

    # ------------------------------------------------------------------
    # lanes and the ready-queue drain loop
    # ------------------------------------------------------------------
    def _run_lanes(self, run: _Run) -> None:
        """The sequential preset drains its one lane on this thread."""
        self._drain(run, _Lane(self.machine))

    def _lane_main(self, run: _Run, lane: _Lane) -> None:
        """A lane thread's body: adopt the run's trace, then drain."""
        with self.tracer.activate(run.span.context):
            self._drain(run, lane)

    def _drain(self, run: _Run, lane: _Lane) -> None:
        """One lane's loop: claim ready work until the run drains.

        A failed invocation is still marked done so its successors are
        released (and skipped as upstream failures under degradation)
        instead of leaving the other lanes waiting forever.
        """
        with self._lane_scope(run, lane):
            while True:
                with run.lock:
                    while not (run.errors or run.finished
                               or (run.ready
                                   and self._may_claim(run, lane))):
                        run.lock.wait()
                    if run.errors or run.finished:
                        return
                    groups = self._claim(run, lane)
                    lane.busy = True
                claimed = [index for group in groups for index in group]
                lane.claimed += len(claimed)
                try:
                    aborted = self._run_claim(run, lane, groups)
                except BaseException as error:
                    aborted = self._fail(run, lane, None, error)
                with run.lock:
                    lane.busy = False
                    run.done.update(claimed)
                    now = time.perf_counter()
                    for index in claimed:
                        for successor in run.nodes[index].successors:
                            # not needed by the targets, or claimed
                            # with this branch: never released
                            if successor not in run.rank \
                                    or successor in run.done:
                                continue
                            run.pending[successor] -= 1
                            if run.pending[successor] == 0:
                                bisect.insort(run.ready, successor,
                                              key=run.rank.__getitem__)
                                run.ready_at[successor] = now
                    run.lock.notify_all()
                if aborted:
                    return

    @contextmanager
    def _lane_scope(self, run: _Run, lane: _Lane) -> Iterator[None]:
        """The ``lane:<name>`` span of presets with run-long lanes."""
        if not self.lane_spans:
            yield
            return
        with self.tracer.span(f"lane:{lane.name}", WAVE_SPAN,
                              attributes={"flow": run.graph.name,
                                          "machine": lane.name}) as span:
            yield
            span.set(invocations=lane.claimed,
                     **self._lane_attributes(lane))

    def _lane_attributes(self, lane: _Lane) -> dict[str, Any]:
        """Extra ``lane:`` span attributes (procpool's worker facts)."""
        return {}

    def _may_claim(self, run: _Run, lane: _Lane) -> bool:
        """Whether the lane may claim from the (non-empty) ready queue
        now (under the run lock); a lane that may not waits for the
        next release.  Every lane may, by default."""
        return True

    def _claim(self, run: _Run, lane: _Lane) -> list[list[int]]:
        """Take work off the ready queue (under the run lock).

        Returns groups of invocation indices; each group goes through
        the pipeline together.  The default claims the earliest ready
        invocation in topological order.
        """
        return [[run.ready.pop(0)]]

    def _claim_scope(self, run: _Run, lane: _Lane,
                     groups: list[list[int]], queue_wait: float):
        """Context around one claim's execution (branch spans)."""
        return nullcontext()

    def _run_claim(self, run: _Run, lane: _Lane,
                   groups: list[list[int]]) -> bool:
        """Run one claim; True when a fatal error aborted the run."""
        started = time.perf_counter()
        queue_wait = started - run.ready_at.get(groups[0][0], started)
        with self._claim_scope(run, lane, groups, max(0.0, queue_wait)):
            for group in groups:
                if self._pipeline(run, lane, group):
                    return True
        return False

    def _fail(self, run: _Run, lane: _Lane,
              node: _InvocationNode | None,
              error: BaseException) -> bool:
        """Route one invocation's failure; True means abort the run.

        Under graceful degradation the loss is recorded and the run
        goes on; otherwise the error ends the run.
        """
        if node is not None \
                and getattr(error, "repro_tool_type", None) is None:
            # failures outside the resilient call (contract checks,
            # history rejection of corrupt output) still carry the tool
            # type so the ledger and reports can group by tool
            annotate_error(error, tool_type=node.tool_type or COMPOSE_TOOL)
        if node is None or not run.degrade \
                or not isinstance(error, Exception):
            with run.lock:
                run.errors.append(error)
                run.lock.notify_all()
            return True
        outputs = node.invocation.outputs
        with run.lock:
            run.report.failures.append(failure_entry(
                error, outputs=tuple(outputs),
                tool_type=getattr(error, "repro_tool_type", None),
                machine=lane.name, policy=self.resilience))
            run.failed_nodes.update(outputs)
        self.bus.emit(EXECUTION_FAILED, flow=run.graph.name,
                      node=",".join(outputs), machine=lane.name,
                      payload={"error": str(error), "degraded": True})
        return False

    def _upstream_failed(self, run: _Run, lane: _Lane,
                         node: _InvocationNode) -> bool:
        """Under degradation, skip invocations whose suppliers failed.

        Returns True (and records an ``upstream``-classified failure)
        when any input node is in ``failed_nodes``; the invocation's
        own outputs join the failed set so the loss propagates down
        the subtree without ever invoking a tool on missing inputs.
        """
        invocation = node.invocation
        with run.lock:
            upstream = sorted({supplier_id for _, supplier_id
                               in invocation.inputs
                               if supplier_id in run.failed_nodes})
            if invocation.tool_node in run.failed_nodes:
                upstream.append(invocation.tool_node)
            if not upstream:
                return False
            run.report.failures.append(InvocationFailure(
                outputs=tuple(invocation.outputs),
                tool_type=node.tool_type or COMPOSE_TOOL,
                error="inputs unavailable: upstream invocation(s) "
                      "failed: " + ", ".join(upstream),
                error_class="ExecutionError",
                classification=UPSTREAM,
                attempts=0,
                machine=lane.name))
            run.failed_nodes.update(invocation.outputs)
        return True

    # ------------------------------------------------------------------
    # the invocation pipeline: prepare -> dispatch -> record
    # ------------------------------------------------------------------
    def _pipeline(self, run: _Run, lane: _Lane, group: list[int]) -> bool:
        """Push one group through the pipeline; True aborts the run."""
        now = time.perf_counter()
        prepared: list[_Prepared] = []
        for index in group:
            node = run.nodes[index]
            outputs = node.invocation.outputs
            if not run.force and all(run.graph.node(o).results()
                                     for o in outputs):
                with run.lock:
                    run.report.skipped.extend(outputs)
                continue
            if run.degrade and self._upstream_failed(run, lane, node):
                continue
            queue_wait = max(0.0, now - run.ready_at.get(index, now))
            try:
                prepared.append(self._prepare(run, lane, node,
                                              queue_wait))
            except BaseException as error:
                if self._fail(run, lane, node, error):
                    return True
        if any(prep.units for prep in prepared):
            self._dispatch(run, lane, prepared)
        for prep in prepared:
            try:
                result, cached = self._record(run, lane, prep)
            except BaseException as error:
                if self._fail(run, lane, prep.node, error):
                    return True
                continue
            with run.lock:
                if result is not None:
                    run.report.results.append(result)
                    lane.executed += 1
                if cached is not None:
                    run.report.cached.append(cached)
        return False

    def _prepare(self, run: _Run, lane: _Lane, node: _InvocationNode,
                 queue_wait: float) -> _Prepared:
        """Resolve inputs, take cache hits, stage the cold calls."""
        graph = run.graph
        invocation = node.invocation
        output_nodes = [graph.node(o) for o in invocation.outputs]
        prep = _Prepared(
            node=node, output_nodes=output_nodes,
            output_types=tuple(n.entity_type for n in output_nodes),
            tool_type=node.tool_type or COMPOSE_TOOL,
            queue_wait=queue_wait, started=time.perf_counter(),
            span_start=self.tracer.clock(),
            reused={n.node_id: [] for n in output_nodes})
        label = ",".join(invocation.outputs)
        emitting = self.bus.enabled
        if emitting:
            for output in output_nodes:
                self.bus.emit(NODE_READY, flow=graph.name,
                              node=output.node_id, machine=lane.name,
                              payload={"entity_type": output.entity_type})
        role_ids: dict[str, tuple[str, ...]] = {}
        for role, supplier_id in invocation.inputs:
            supplier = graph.node(supplier_id)
            ids = supplier.results()
            if not ids:
                raise ExecutionError(
                    f"{supplier}: no instances available for role "
                    f"{role!r}")
            role_ids[role] = ids
        if emitting:
            self.bus.emit(TOOL_INVOKED, flow=graph.name, node=label,
                          tool_type=prep.tool_type, machine=lane.name,
                          payload={"roles": sorted(role_ids)})
        cache = run.cache
        fetch_types = sorted(set(prep.output_types))
        for fn, ctx, combo in self._calls(run, prep, role_ids):
            tool_id = ctx.tool_instance_id
            key = None
            if cache is not None:
                key = (cache.composition_key(ctx.tool_type, combo)
                       if tool_id is None
                       else cache.tool_run_key(tool_id, combo,
                                               fetch_types))
                if run.reads:
                    attributes = {"key": key[:16]}
                    if tool_id is not None:
                        attributes["tool"] = tool_id
                    with self.tracer.span(f"cache:{ctx.tool_type}",
                                          CACHE_SPAN,
                                          attributes=attributes
                                          ) as lookup:
                        hit = cache.fetch(key, fetch_types,
                                          tool_id=tool_id, combo=combo)
                        lookup.set(outcome="hit" if hit is not None
                                   else "miss")
                    if hit is not None:
                        self._take_hit(run, lane, prep, hit)
                        continue
                    if emitting:
                        self.bus.emit(CACHE_MISS, flow=graph.name,
                                      node=label,
                                      tool_type=prep.tool_type,
                                      machine=lane.name,
                                      payload={"key": key[:16]})
            with self._lock:
                if prep.invocation_id is None:
                    prep.invocation_id = self.db.new_invocation_id()
                if tool_id is not None:
                    ctx = replace(ctx, tool_data=self.db.data(tool_id))
                inputs = {
                    role: ([self.db.data(r) for r in ref]
                           if isinstance(ref, list)
                           else self.db.data(ref))
                    for role, ref in combo.items()}
            prep.units.append(_Unit(prep.tool_type, fn=fn, ctx=ctx,
                                    node=label, inputs=inputs,
                                    combo=combo, cache_key=key))
        return prep

    def _calls(self, run: _Run, prep: _Prepared,
               role_ids: dict[str, tuple[str, ...]]
               ) -> Iterator[tuple[Any, ToolContext, dict[str, Any]]]:
        """(callable, context, combination) of every call.

        A composition runs once per input combination; a tool runs once
        per selected tool instance and combination, or once per tool
        instance with every selected input when its encapsulation
        batches.  A context names no tool data: a call reads it only
        when it is staged to run cold.
        """
        invocation = prep.node.invocation
        if invocation.tool_node is None:
            # composed invocations have exactly one output by
            # construction
            entity_type = prep.output_types[0]
            prep.encapsulation_name = f"compose:{entity_type}"
            compose = self.registry.composition(entity_type)
            ctx = ToolContext(entity_type, None, None, (entity_type,),
                              user=self.user)
            for combo in _combinations(role_ids):
                yield compose, ctx, combo
            return
        tool_node = run.graph.node(invocation.tool_node)
        prep.tool_ids = tuple(tool_node.results())
        if not prep.tool_ids:
            raise ExecutionError(
                f"{tool_node}: no tool instance available")
        for tool_id in prep.tool_ids:
            with self._lock:
                tool_instance = self.db.get(tool_id)
            enc = self.registry.resolve(tool_instance.entity_type, tool_id)
            prep.encapsulation_name = enc.name
            ctx = ToolContext(tool_instance.entity_type, tool_id, None,
                              prep.output_types, enc.options(), self.user)
            if enc.batch:
                combos: Any = [{role: list(ids)
                                for role, ids in role_ids.items()}]
            else:
                combos = _combinations(role_ids)
            for combo in combos:
                yield enc, ctx, combo

    def _take_hit(self, run: _Run, lane: _Lane, prep: _Prepared,
                  hit) -> None:
        grouped = hit.ids_by_type()
        for output in prep.output_nodes:
            ids = grouped.get(output.entity_type, [])
            instance_id = ids.pop(0) if ids else hit.instance_ids[0]
            prep.reused[output.node_id].append(instance_id)
            prep.reused_all.append(instance_id)
        prep.hits += 1
        prep.saved += hit.saved
        prep.bytes_saved += hit.bytes_saved
        lane.cache_hits += 1
        if self.bus.enabled:
            self.bus.emit(CACHE_HIT, flow=run.graph.name,
                          node=",".join(prep.node.invocation.outputs),
                          tool_type=prep.tool_type, machine=lane.name,
                          payload={"instances": list(hit.instance_ids),
                                   "saved": hit.saved,
                                   "bytes": hit.bytes_saved,
                                   "key": hit.key[:16]})

    def _dispatch(self, run: _Run, lane: _Lane,
                  prepared: list[_Prepared]) -> None:
        """Drive every cold call to its final outcome, trip by trip.

        Each trip goes through the policy's retry loop; without a
        policy an attempt's error is final.  After a call fails for
        good, its invocation's later calls never run.
        """
        policy = self.resilience
        failed: set[str] = set()
        for trip in self._trips([unit for prep in prepared
                                 for unit in prep.units]):
            trip = [unit for unit in trip if unit.node not in failed]
            if not trip:
                continue
            if policy is None:
                for unit, error in zip(trip,
                                       self._attempt(run, lane, trip)):
                    unit.error = error
            else:
                policy.drive(
                    trip, lambda calls: self._attempt(run, lane, calls),
                    lambda unit: self._policy_hooks(run, lane, unit))
            failed.update(unit.node for unit in trip
                          if unit.error is not None)

    def _trips(self, calls: list[_Unit]) -> list[list[_Unit]]:
        """How calls share an attempt: inline, one at a time in order."""
        return [[call] for call in calls]

    def _attempt(self, run: _Run, lane: _Lane,
                 trip: list[_Unit]) -> list[BaseException | None]:
        """One attempt of a trip's one call, on the lane thread under
        its watchdog budget; returns the attempt's error or None."""
        (unit,) = trip
        if unit.started is None:
            unit.started = self.tracer.clock()
        fault = self._fault(unit)
        sleep = self.faults.sleep if fault is not None else time.sleep
        began = time.perf_counter()
        try:
            unit.value = call_with_timeout(
                lambda: run_call(unit.fn, unit.ctx, unit.inputs, fault,
                                 sleep=sleep, profiler=self.profiler),
                watchdog_budget(self.resilience, unit.tool_type))
        except BaseException as error:
            return [error]
        unit.duration = time.perf_counter() - began
        return [None]

    def _fault(self, unit: _Unit) -> FaultSpec | None:
        """The fault scripted for this attempt, drawn on the
        coordinator where the plan's counters live."""
        if self.faults is None:
            return None
        return self.faults.next_fault(unit.tool_type)

    def _policy_hooks(self, run: _Run, lane: _Lane, unit: _Unit):
        """Event callbacks for the policy's retry decisions."""
        context = {"flow": run.graph.name, "node": unit.node,
                   "tool_type": unit.tool_type, "machine": lane.name}

        def on_retry(attempt: int, error: BaseException, delay: float,
                     classification: str) -> None:
            self.bus.emit(TOOL_RETRIED, **context,
                          payload={"attempt": attempt,
                                   "error": str(error),
                                   "error_class": type(error).__name__,
                                   "classification": classification,
                                   "delay": round(delay, 6)})

        def on_timeout(attempt: int, budget: float) -> None:
            self.bus.emit(TOOL_TIMED_OUT, **context,
                          payload={"attempt": attempt, "budget": budget})

        def on_quarantine(consecutive: int) -> None:
            self.bus.emit(TOOL_QUARANTINED, **context,
                          payload={"consecutive_failures": consecutive})

        return on_retry, on_timeout, on_quarantine

    def _record(self, run: _Run, lane: _Lane, prep: _Prepared
                ) -> tuple[InvocationResult | None,
                           CachedInvocation | None]:
        """Fold one invocation's calls into history and the report.

        Calls are recorded in order; a failed call fails the invocation
        and its error is raised.  The calls before it stay recorded and
        cached, exactly what an inline lane — which stops at the first
        failure — leaves behind; none of the invocation's nodes get a
        ``produced`` result.  Spans are opened here, after the work, and
        pulled back to when it started so child intervals stay
        contained.
        """
        graph = run.graph
        invocation = prep.node.invocation
        label = ",".join(invocation.outputs)
        # The invocation waited in the ready queue AND, on procpool,
        # in its worker's pipe before its first call started.
        if prep.units:
            prep.queue_wait += min(u.batch_offset for u in prep.units)
        result = cached = None
        with self.tracer.span("task:" + label, TASK_SPAN) as task_span:
            if isinstance(task_span, Span):
                task_span.start = min(task_span.start, prep.span_start)
                task_span.set(
                    flow=graph.name, machine=lane.name,
                    outputs=sorted(invocation.outputs),
                    inputs=sorted({supplier_id for _, supplier_id
                                   in invocation.inputs}),
                    entity_types=sorted(set(prep.output_types)),
                    tool_type=prep.tool_type,
                    wave=run.wave[prep.node.index])
                if prep.queue_wait > 0:
                    task_span.set(queue_wait=round(prep.queue_wait, 6))
            created: list[str] = []
            created_by_node: dict[str, list[str]] = {
                n.node_id: [] for n in prep.output_nodes}
            for unit in prep.units:
                if unit.error is not None:
                    raise unit.error
                pairs = self._record_unit(run, lane, prep, unit)
                for node_id, instance_id in pairs:
                    created_by_node[node_id].append(instance_id)
                    created.append(instance_id)
                if unit.cache_key is not None and run.writes:
                    run.cache.store(
                        unit.cache_key,
                        [(graph.node(node_id).entity_type, instance_id)
                         for node_id, instance_id in pairs],
                        unit.duration)
            for output in prep.output_nodes:
                output.produced = output.produced \
                    + tuple(prep.reused[output.node_id]) \
                    + tuple(created_by_node[output.node_id])
            if prep.units:
                result = InvocationResult(
                    prep.invocation_id or "", prep.node.tool_type,
                    prep.tool_ids, prep.encapsulation_name,
                    len(prep.units), tuple(created),
                    {k: tuple(v) for k, v in created_by_node.items()},
                    self._duration(prep), lane.name,
                    queue_wait=prep.queue_wait,
                    retries=sum(u.stats.retries for u in prep.units),
                    timeouts=sum(u.stats.timeouts for u in prep.units))
                task_span.set(created=list(result.created),
                              invocation_id=result.invocation_id)
            if prep.hits:
                cached = CachedInvocation(
                    prep.node.tool_type, invocation.outputs, prep.hits,
                    tuple(prep.reused_all),
                    {k: tuple(v) for k, v in prep.reused.items()},
                    prep.saved, prep.bytes_saved, lane.name)
                task_span.set(reused=list(cached.instances))
            if run.cache is not None:
                # every combination served from the cache is a hit; a
                # mix of reused and executed combos is "partial"
                if cached is not None:
                    task_span.set(cache="hit" if result is None
                                  else "partial")
                elif run.reads:
                    task_span.set(cache="miss")
        if result is not None and self.bus.enabled:
            payload: dict[str, Any] = {"runs": result.runs,
                                       "created": list(result.created)}
            if prep.queue_wait > 0:
                payload["queue_wait"] = round(prep.queue_wait, 6)
            self.bus.emit(
                COMPOSITION_RUN if invocation.tool_node is None
                else TOOL_FINISHED,
                flow=graph.name, node=label, tool_type=prep.tool_type,
                invocation_id=result.invocation_id, machine=lane.name,
                duration=result.duration, payload=payload)
        return result, cached

    def _record_unit(self, run: _Run, lane: _Lane, prep: _Prepared,
                     unit: _Unit) -> list[tuple[str, str]]:
        """Record one call's outputs under its tool (or compose) span.

        Returns ``(node id, instance id)`` per output node.
        """
        compose = unit.ctx.tool_instance_id is None
        if compose:
            produced = {unit.ctx.tool_type: unit.value}
            derivation = DerivationRecord.make(None, unit.combo,
                                               prep.invocation_id)
        else:
            produced = _normalize_result(unit.value, prep.output_types,
                                         unit.fn.name)
            derivation = DerivationRecord(
                unit.ctx.tool_instance_id, _derivation_inputs(unit.combo),
                prep.invocation_id)
        pairs: list[tuple[str, str]] = []
        with self.tracer.span(
                f"{'compose' if compose else 'tool'}:{unit.ctx.tool_type}",
                COMPOSE_SPAN if compose else TOOL_SPAN) as tool_span:
            for output in prep.output_nodes:
                with self._lock:
                    instance = self.db.record(
                        output.entity_type, produced[output.entity_type],
                        derivation, user=self.user, name=output.label,
                        annotations={"flow": run.graph.name,
                                     "machine": lane.name},
                        trace=tool_span.context)
                pairs.append((output.node_id, instance.instance_id))
            if isinstance(tool_span, Span):
                self._trace_unit(lane, prep, unit, tool_span)
                tool_span.set(created=[i for _, i in pairs])
        return pairs

    def _trace_unit(self, lane: _Lane, prep: _Prepared, unit: _Unit,
                    span: Span) -> None:
        """Describe one recorded call on its (live) tool span."""
        if unit.ctx.tool_instance_id is None:
            span.set(entity_type=unit.ctx.tool_type)
        else:
            span.set(tool=unit.ctx.tool_instance_id,
                     tool_type=unit.ctx.tool_type,
                     encapsulation=unit.fn.name)
        if unit.stats.retries:
            span.set(retries=unit.stats.retries)
        if unit.stats.timeouts:
            span.set(timeouts=unit.stats.timeouts)
        span.set(invocation_id=prep.invocation_id)
        if unit.started is not None:
            span.start = min(span.start, unit.started)

    def _duration(self, prep: _Prepared) -> float:
        """An invocation's duration: prepare through record, inline."""
        return time.perf_counter() - prep.started


def run_call(fn: Any, ctx: ToolContext, inputs: dict[str, Any],
             fault: FaultSpec | None, *, sleep: Callable[[float], None],
             profiler: Any) -> Any:
    """One attempt's call body, the same on a lane and in a worker.

    The attempt's drawn fault fires around the body, under the
    profiler; the body is the tool's :meth:`ToolEncapsulation.run`, or
    the composition when ``ctx`` names no tool instance.
    """
    if ctx.tool_instance_id is None:
        key, body = COMPOSE_TOOL, lambda: fn(inputs)
    else:
        key, body = ctx.tool_type, lambda: fn.run(ctx, inputs)
    call = lambda: run_with_fault(fault, body, sleep=sleep)  # noqa: E731
    return call() if profiler is None else profiler.run(key, call)


def _combinations(role_ids: dict[str, tuple[str, ...]]):
    """Cartesian product over roles with multiple selected instances.

    Section 4.1: selecting a set of instances causes *"the task to be run
    for each data instance specified"*; with several multi-selected roles
    the task runs for each combination.
    """
    roles = sorted(role_ids)
    for values in itertools.product(*(role_ids[r] for r in roles)):
        yield dict(zip(roles, values))


def _derivation_inputs(combo: dict[str, Any]
                       ) -> tuple[tuple[str, str], ...]:
    pairs: list[tuple[str, str]] = []
    for role, ref in combo.items():
        if isinstance(ref, list):
            pairs.extend((role, r) for r in ref)
        else:
            pairs.append((role, ref))
    return tuple(sorted(pairs))


def _normalize_result(result: Any, output_types: tuple[str, ...],
                      encapsulation_name: str) -> dict[str, Any]:
    """Map an encapsulation return value onto the expected output types."""
    if isinstance(result, dict) and set(result) == set(output_types):
        return result
    if len(output_types) == 1:
        return {output_types[0]: result}
    raise ExecutionError(
        f"encapsulation {encapsulation_name!r} must return a dict keyed "
        f"by output types {sorted(output_types)}, got "
        f"{type(result).__name__}")
