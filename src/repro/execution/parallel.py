"""Parallel execution of disjoint flow branches (paper Fig. 6).

Section 3.3: *"It is also possible to support parallel task execution,
wherein disjoint branches in the flow can be executed in parallel,
possibly on different machines."*

The 1993 machine farm is simulated by a :class:`MachinePool`.  The
parallel preset of the execution core runs one lane per machine; a lane
claims a whole weakly connected component of the task graph (a
*branch*) and runs its invocations in order.  All lanes share one lock
around the history database, so derivation records stay consistent
while tool code (the slow part — external processes in the paper's
world, here Python callables that may block or sleep) runs
concurrently.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from ..core.taskgraph import TaskGraph
from ..errors import ExecutionError
from ..history.database import HistoryDatabase
from ..obs import LANE_ASSIGNED, PARALLEL_EXECUTOR, WAVE_SPAN
from .encapsulation import EncapsulationRegistry
from .executor import FlowExecutor, _Lane, _run_threads


@dataclass
class Machine:
    """One (simulated) workstation of the design environment."""

    name: str
    executed_branches: int = 0
    executed_invocations: int = 0


class MachinePool:
    """Fixed set of machines handed out to branch executions."""

    def __init__(self, names: Sequence[str]) -> None:
        if not names:
            raise ExecutionError("machine pool needs at least one machine")
        self._machines = {name: Machine(name) for name in names}
        self._idle = list(names)
        self._condition = threading.Condition()

    @classmethod
    def local(cls, size: int) -> "MachinePool":
        return cls([f"machine{i}" for i in range(size)])

    def acquire(self) -> Machine:
        with self._condition:
            while not self._idle:
                self._condition.wait()
            return self._machines[self._idle.pop()]

    def release(self, machine: Machine) -> None:
        with self._condition:
            self._idle.append(machine.name)
            self._condition.notify()

    def machines(self) -> tuple[Machine, ...]:
        return tuple(self._machines.values())

    def __len__(self) -> int:
        return len(self._machines)


@dataclass
class BranchPlan:
    """The parallel schedule: which nodes run together."""

    branches: tuple[frozenset[str], ...] = field(default_factory=tuple)

    @property
    def width(self) -> int:
        return len(self.branches)


def plan_branches(graph: TaskGraph,
                  targets: Sequence[str] | None = None) -> BranchPlan:
    """Split a flow into independently executable branches.

    With ``targets``, only branches containing a target are scheduled.
    """
    branches = graph.disjoint_branches()
    if targets is not None:
        wanted = set(targets)
        branches = tuple(b for b in branches if b & wanted)
    return BranchPlan(tuple(sorted(branches, key=sorted)))


class _PooledExecutor(FlowExecutor):
    """Presets whose lanes are the machines of a :class:`MachinePool`."""

    def __init__(self, db: HistoryDatabase,
                 registry: EncapsulationRegistry, *,
                 pool: MachinePool | None = None, machines: int = 2,
                 **settings: Any) -> None:
        """``settings`` are :class:`FlowExecutor`'s keywords."""
        super().__init__(db, registry, machine="", **settings)
        self.pool = pool if pool is not None else MachinePool.local(machines)

    @property
    def lanes(self) -> int:
        return len(self.pool)

    def _run_lanes(self, run) -> None:
        """One lane thread per machine, holding it for the whole run."""

        def lane_main() -> None:
            machine = self.pool.acquire()
            lane = _Lane(machine.name, machine)
            try:
                self._lane_main(run, lane)
            finally:
                machine.executed_invocations += lane.executed
                self.pool.release(machine)

        _run_threads([lane_main] * len(self.pool))


class ParallelFlowExecutor(_PooledExecutor):
    """Executes disjoint branches of a flow concurrently.

    Each lane claims a whole branch and runs it on its machine.
    """

    kind = PARALLEL_EXECUTOR

    def _run_attributes(self, run) -> dict:
        """Describe the run, noting the branch holding each invocation
        for :meth:`_claim`."""
        branch_of = {node_id: branch
                     for branch in run.graph.disjoint_branches()
                     for node_id in branch}
        for index in run.order:
            outputs = run.nodes[index].invocation.outputs
            run.branches[index] = branch_of[outputs[0]]
        return {"scheduler": "disjoint-branches",
                "branches": len(set(run.branches.values())),
                "machines": len(self.pool)}

    def _claim(self, run, lane) -> list[list[int]]:
        """Claim the whole branch of the earliest ready invocation.

        Branches share no dependencies, so the lane runs the branch's
        invocations one after another in topological order.
        """
        branch = run.branches[run.ready[0]]
        run.ready[:] = [index for index in run.ready
                        if run.branches[index] != branch]
        return [[index] for index in run.order
                if run.branches[index] == branch]

    @contextmanager
    def _claim_scope(self, run, lane, groups,
                     queue_wait: float) -> Iterator[None]:
        branch = sorted(run.branches[groups[0][0]])
        self.bus.emit(LANE_ASSIGNED, flow=run.graph.name,
                      machine=lane.name, payload={"branch": branch})
        with self.tracer.span(f"branch:{lane.name}", WAVE_SPAN,
                              attributes={"flow": run.graph.name,
                                          "machine": lane.name,
                                          "branch": branch,
                                          "queue_wait":
                                          round(queue_wait, 6)}):
            yield
        lane.host.executed_branches += 1
