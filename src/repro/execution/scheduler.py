"""Invocation-level flow scheduling (extension beyond Fig. 6).

The paper parallelizes *disjoint branches* (weakly connected components).
A natural extension — enabled by the same schema dependencies — is
invocation-level scheduling: within one connected flow, every task
invocation whose inputs are ready may run, so a diamond-shaped flow
(extract -> {simulate, verify} -> plot) still overlaps its middle stages.

Three pieces:

* :class:`DurationModel` — expected tool run times learned from executed
  reports (the history's time-stamps are the paper's meta-data; the
  durations come from execution reports);
* :func:`plan_schedule` — critical-path list scheduling of a flow's
  invocations onto M machines, yielding a predicted makespan;
* :class:`ScheduledFlowExecutor` — the execution core's preset with one
  lane per :class:`~repro.execution.parallel.MachinePool` machine, each
  claiming one ready invocation at a time, strictly respecting
  dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.flow import DynamicFlow
from ..core.taskgraph import TaskGraph
from ..dag import longest, topological
from ..errors import ExecutionError
from ..history.database import HistoryDatabase
from ..obs import (COMPOSE_TOOL, COMPOSITION_RUN, SCHEDULED_EXECUTOR,
                   TOOL_FINISHED, Event)
from .encapsulation import EncapsulationRegistry
from .executor import (ExecutionReport, InvocationResult,
                       _InvocationNode, _invocation_graph)
from .parallel import _PooledExecutor

DEFAULT_DURATION = 1.0


class DurationModel:
    """Per-tool-type expected durations, learned from executed runs.

    The scheduled and procpool presets feed their model every finished
    run's report (:meth:`observe_report`).  The model is also an event
    sink: subscribed to a bus, every ``tool_finished`` /
    ``composition_run`` event updates the estimate.
    """

    def __init__(self, default: float = DEFAULT_DURATION) -> None:
        self.default = default
        self._totals: dict[str, float] = {}
        self._counts: dict[str, int] = {}

    def handle(self, event: Event) -> None:
        """EventBus sink interface: learn from timing events."""
        if event.event_type in (TOOL_FINISHED, COMPOSITION_RUN):
            self.record(event.tool_type or None, event.duration)

    def observe_report(self, report: ExecutionReport) -> None:
        for result in report.results:
            self.observe(result)

    def observe(self, result: InvocationResult) -> None:
        self.record(result.tool_type, result.duration)

    def record(self, tool_type: str | None, duration: float) -> None:
        key = tool_type or COMPOSE_TOOL
        self._totals[key] = self._totals.get(key, 0.0) + duration
        self._counts[key] = self._counts.get(key, 0) + 1

    def estimate(self, tool_type: str | None) -> float:
        key = tool_type or COMPOSE_TOOL
        if key not in self._counts:
            return self.default
        return self._totals[key] / self._counts[key]

    def observed_types(self) -> tuple[str, ...]:
        return tuple(sorted(self._counts))


@dataclass(frozen=True)
class ScheduleEntry:
    """One invocation's planned slot."""

    outputs: tuple[str, ...]
    tool_type: str | None
    machine: str
    start: float
    end: float


@dataclass
class Schedule:
    """A planned execution of a flow on M machines."""

    entries: tuple[ScheduleEntry, ...]
    makespan: float
    machines: int
    serial_time: float
    critical_path: float

    @property
    def predicted_speedup(self) -> float:
        return self.serial_time / self.makespan if self.makespan else 1.0

    def render(self) -> str:
        lines = [f"schedule on {self.machines} machines "
                 f"(makespan {self.makespan:.3f}, serial "
                 f"{self.serial_time:.3f}, critical path "
                 f"{self.critical_path:.3f})"]
        for entry in sorted(self.entries,
                            key=lambda e: (e.start, e.machine)):
            tool = entry.tool_type or "<compose>"
            lines.append(
                f"  {entry.machine:<10} {entry.start:7.3f} -> "
                f"{entry.end:7.3f}  {tool:<20} "
                f"outputs={list(entry.outputs)}")
        return "\n".join(lines)


def _critical_lengths(nodes: list[_InvocationNode]) -> list[float]:
    """Longest path from each invocation to any sink (its priority)."""
    successors = [node.successors for node in nodes].__getitem__
    indexes = range(len(nodes))
    chains = longest(topological(indexes, successors), successors,
                     lambda index: nodes[index].duration)
    return [chains[index][0] for index in indexes]


def plan_schedule(flow: TaskGraph | DynamicFlow, machines: int,
                  durations: DurationModel | None = None) -> Schedule:
    """Critical-path list schedule of a flow's invocations."""
    graph = flow.graph if isinstance(flow, DynamicFlow) else flow
    if machines < 1:
        raise ExecutionError("need at least one machine")
    durations = durations if durations is not None else DurationModel()
    nodes = _invocation_graph(graph, durations)
    priority = _critical_lengths(nodes)
    pending = {n.index: len(n.predecessors) for n in nodes}
    ready = sorted((n.index for n in nodes if not n.predecessors),
                   key=lambda i: -priority[i])
    machine_free = {f"machine{i}": 0.0 for i in range(machines)}
    finish_time: dict[int, float] = {}
    entries: list[ScheduleEntry] = []
    while ready:
        index = ready.pop(0)
        node = nodes[index]
        earliest = max((finish_time[p] for p in node.predecessors),
                       default=0.0)
        machine = min(machine_free,
                      key=lambda m: (max(machine_free[m], earliest), m))
        start = max(machine_free[machine], earliest)
        end = start + node.duration
        machine_free[machine] = end
        finish_time[index] = end
        entries.append(ScheduleEntry(node.invocation.outputs,
                                     node.tool_type, machine, start,
                                     end))
        for successor in node.successors:
            pending[successor] -= 1
            if pending[successor] == 0:
                position = 0
                while position < len(ready) and \
                        priority[ready[position]] >= priority[successor]:
                    position += 1
                ready.insert(position, successor)
    makespan = max((e.end for e in entries), default=0.0)
    serial = sum(n.duration for n in nodes)
    critical = max(priority, default=0.0)
    return Schedule(tuple(entries), makespan, machines, serial, critical)


class ScheduledFlowExecutor(_PooledExecutor):
    """Executes one flow with invocation-level parallelism.

    One lane per pool machine; each lane claims the earliest ready
    invocation, so independent invocations overlap even inside one
    connected branch.
    """

    kind = SCHEDULED_EXECUTOR
    lane_spans = True

    def __init__(self, db: HistoryDatabase,
                 registry: EncapsulationRegistry, *,
                 durations: DurationModel | None = None,
                 **settings: Any) -> None:
        """``settings`` are ``pool``/``machines`` and
        :class:`FlowExecutor`'s keywords."""
        super().__init__(db, registry, **settings)
        self.durations = durations if durations is not None \
            else DurationModel()

    def _run_attributes(self, run) -> dict:
        return {"scheduler": "invocation-level",
                "machines": len(self.pool)}
