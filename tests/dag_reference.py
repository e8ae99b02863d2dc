"""The hand-written graph walks that :mod:`repro.dag` replaced.

Each function below is the implementation it names, moved here verbatim
when its module switched to the shared walks; methods became functions
of their ``self`` (``graph``, ``schema``, ``flow``), and the functions
they called are the copies next to them.  The depth-first walks recurse,
so they only answer graphs shallower than the interpreter's recursion
limit.  ``tests/test_dag.py`` demands the same results and errors from
both on random graphs and histories.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.flow import DynamicFlow
from repro.core.lisp import _atom, _ordered_inputs
from repro.core.node import FlowEdge
from repro.core.taskgraph import TaskGraph
from repro.errors import (DependencyError, ExecutionError, FlowError,
                          ObservabilityError)
from repro.execution.executor import _InvocationNode
from repro.execution.scheduler import (DurationModel, Schedule,
                                       ScheduleEntry)
from repro.history.database import HistoryDatabase
from repro.history.instance import EntityInstance
from repro.history.statistics import HistoryStatistics
from repro.obs.tracing import (RUN_SPAN, TASK_SPAN, CriticalPathReport,
                               Span, TaskTiming, spans_of_trace)
from repro.schema.dependency import DepKind
from repro.schema.schema import TaskSchema


# ---------------------------------------------------------------------------
# core/taskgraph.py: TaskGraph.connect, subtree, dependents,
# topological_order, _has_cycle
# ---------------------------------------------------------------------------
def connect(self: TaskGraph, consumer_id: str, supplier_id: str, *,
            role: str | None = None) -> FlowEdge:
    """Add a dependency edge ``consumer --> supplier``."""
    consumer = self.node(consumer_id)
    supplier = self.node(supplier_id)
    dep = self._resolve_dependency(consumer, supplier, role)
    if dep.kind is DepKind.FUNCTIONAL:
        if self.functional_supplier(consumer_id) is not None:
            raise FlowError(
                f"{consumer}: already has a tool connected")
    else:
        if dep.role in self._connected_roles(consumer_id):
            raise FlowError(
                f"{consumer}: role {dep.role!r} already connected")
    edge = FlowEdge(consumer_id, supplier_id, dep.kind, dep.role,
                    dep.optional)
    self._edges.append(edge)
    if _has_cycle(self):
        self._edges.pop()
        raise FlowError(
            f"edge {consumer} -> {supplier} would create a cycle; "
            "task graphs are acyclic")
    return edge


def subtree(self: TaskGraph, node_id: str) -> set[str]:
    """Node ids reachable from ``node_id`` through supplier edges."""
    seen: set[str] = set()
    frontier = [node_id]
    while frontier:
        current = frontier.pop()
        if current in seen:
            continue
        seen.add(current)
        frontier.extend(e.supplier for e in self.suppliers(current))
    return seen


def dependents(self: TaskGraph, node_id: str) -> set[str]:
    """Node ids reachable from ``node_id`` through consumer edges."""
    seen: set[str] = set()
    frontier = [node_id]
    while frontier:
        current = frontier.pop()
        if current in seen:
            continue
        seen.add(current)
        frontier.extend(e.consumer for e in self.consumers(current))
    return seen


def topological_order(self: TaskGraph) -> tuple[str, ...]:
    """Node ids ordered suppliers-first (execution order)."""
    order: list[str] = []
    state: dict[str, int] = {}

    def visit(node_id: str) -> None:
        state[node_id] = 1
        for edge in self.suppliers(node_id):
            succ = edge.supplier
            if state.get(succ, 0) == 1:
                raise FlowError("task graph contains a cycle")
            if state.get(succ, 0) == 0:
                visit(succ)
        state[node_id] = 2
        order.append(node_id)

    for node_id in self._nodes:
        if state.get(node_id, 0) == 0:
            visit(node_id)
    return tuple(order)


def _has_cycle(self: TaskGraph) -> bool:
    try:
        topological_order(self)
    except FlowError:
        return True
    return False


# ---------------------------------------------------------------------------
# schema/schema.py: TaskSchema._validate_acyclicity
# ---------------------------------------------------------------------------
def validate_acyclicity(self: TaskSchema) -> None:
    """Every cycle must contain at least one optional dependency."""
    adjacency: dict[str, list[str]] = {n: [] for n in self._entities}
    for name in self._entities:
        for dep in self.effective_dependencies(name):
            if dep.is_data and dep.optional:
                continue
            adjacency[name].append(dep.target)
    state: dict[str, int] = {}

    def visit(node: str, stack: list[str]) -> None:
        state[node] = 1
        stack.append(node)
        for succ in adjacency[node]:
            if state.get(succ, 0) == 1:
                cycle = stack[stack.index(succ):] + [succ]
                raise DependencyError(
                    "mandatory dependency cycle (mark one arc optional "
                    "to break it): " + " -> ".join(cycle)
                )
            if state.get(succ, 0) == 0:
                visit(succ, stack)
        stack.pop()
        state[node] = 2

    for name in self._entities:
        if state.get(name, 0) == 0:
            visit(name, [])


# ---------------------------------------------------------------------------
# core/render.py: layers
# ---------------------------------------------------------------------------
def layers(flow: TaskGraph) -> tuple[tuple[str, ...], ...]:
    """Nodes grouped by longest-path depth from the leaves."""
    depth: dict[str, int] = {}
    for node_id in topological_order(flow):
        supplier_edges = flow.suppliers(node_id)
        if not supplier_edges:
            depth[node_id] = 0
        else:
            depth[node_id] = 1 + max(depth[e.supplier]
                                     for e in supplier_edges)
    if not depth:
        return ()
    grouped: dict[int, list[str]] = {}
    for node_id, level in depth.items():
        grouped.setdefault(level, []).append(node_id)
    return tuple(tuple(sorted(grouped[level]))
                 for level in sorted(grouped))


# ---------------------------------------------------------------------------
# execution/executor.py: _invocation_graph and FlowExecutor._plan's
# rank order and waves (whole flow or targets)
# ---------------------------------------------------------------------------
def invocation_graph(graph: TaskGraph,
                     durations=None) -> list[_InvocationNode]:
    """The flow's invocations with redundant dependency maps."""
    invocations = graph.invocations()
    producer_of = {output: index
                   for index, invocation in enumerate(invocations)
                   for output in invocation.outputs}
    predecessors: list[set[int]] = [set() for _ in invocations]
    for index, invocation in enumerate(invocations):
        sources = list(invocation.input_nodes)
        if invocation.tool_node is not None:
            sources.append(invocation.tool_node)
        for node_id in sources:
            producer = producer_of.get(node_id)
            if producer is not None and producer != index:
                predecessors[index].add(producer)
    successors: list[set[int]] = [set() for _ in invocations]
    for index, preds in enumerate(predecessors):
        for pred in preds:
            successors[pred].add(index)
    nodes = []
    for index, invocation in enumerate(invocations):
        tool_type = (graph.node(invocation.tool_node).entity_type
                     if invocation.tool_node is not None else None)
        nodes.append(_InvocationNode(
            index, invocation, tool_type,
            tuple(sorted(predecessors[index])),
            tuple(sorted(successors[index])),
            durations.estimate(tool_type) if durations is not None
            else 0.0))
    return nodes


def waves(graph: TaskGraph, targets: Sequence[str] | None
          ) -> dict[tuple[str, ...], int]:
    """Each needed invocation's wave, keyed by its outputs."""
    if targets is None:
        needed = set(graph.node_ids())
    else:
        needed = set()
        for target in targets:
            needed |= subtree(graph, target)
    position = {node_id: index for index, node_id
                in enumerate(topological_order(graph))}
    nodes = invocation_graph(graph)
    rank: dict[int, int] = {}
    for node in nodes:
        positions = [position[output]
                     for output in node.invocation.outputs
                     if output in needed]
        if positions:
            rank[node.index] = min(positions)
    wave: dict[int, int] = {}
    for index in sorted(rank, key=rank.__getitem__):
        preds = nodes[index].predecessors
        wave[index] = 1 + max((wave[p] for p in preds),
                              default=-1)
    return {nodes[index].invocation.outputs: value
            for index, value in wave.items()}


# ---------------------------------------------------------------------------
# execution/scheduler.py: _critical_lengths and plan_schedule
# ---------------------------------------------------------------------------
def critical_lengths(nodes: list[_InvocationNode]) -> list[float]:
    """Longest path from each invocation to any sink (its priority)."""
    length = [0.0] * len(nodes)
    # process in reverse topological order: repeat-until-stable is fine
    # for the small graphs flows produce, but we do it properly:
    indegree_out = [len(n.successors) for n in nodes]
    stack = [n.index for n in nodes if not n.successors]
    order: list[int] = []
    remaining = list(indegree_out)
    while stack:
        current = stack.pop()
        order.append(current)
        for pred in nodes[current].predecessors:
            remaining[pred] -= 1
            if remaining[pred] == 0:
                stack.append(pred)
    for index in order:
        node = nodes[index]
        best_successor = max((length[s] for s in node.successors),
                             default=0.0)
        length[index] = node.duration + best_successor
    return length


def plan_schedule(flow: TaskGraph | DynamicFlow, machines: int,
                  durations: DurationModel | None = None) -> Schedule:
    """Critical-path list schedule of a flow's invocations."""
    graph = flow.graph if isinstance(flow, DynamicFlow) else flow
    if machines < 1:
        raise ExecutionError("need at least one machine")
    durations = durations if durations is not None else DurationModel()
    nodes = invocation_graph(graph, durations)
    priority = critical_lengths(nodes)
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


# ---------------------------------------------------------------------------
# obs/tracing.py: critical_path and _topological
# ---------------------------------------------------------------------------
def critical_path(spans: Sequence[Span],
                  trace_id: str | None = None) -> CriticalPathReport:
    """Analyze one trace: longest dependency chain, slack, efficiency."""
    selected = spans_of_trace(spans, trace_id)
    if not selected:
        raise ObservabilityError("no spans recorded")
    tasks = [s for s in selected if s.kind == TASK_SPAN]
    run = next((s for s in selected if s.kind == RUN_SPAN), None)
    if run is not None and run.duration > 0:
        wall = run.duration
    else:
        wall = (max(s.end for s in selected)
                - min(s.start for s in selected))
    busy = sum(s.duration for s in tasks)
    flow = (run.value("flow", "") if run is not None
            else (tasks[0].value("flow", "") if tasks else ""))

    producer: dict[str, int] = {}
    for index, span in enumerate(tasks):
        for node_id in span.value("outputs", ()) or ():
            producer[node_id] = index
    preds: list[set[int]] = [set() for _ in tasks]
    for index, span in enumerate(tasks):
        for node_id in span.value("inputs", ()) or ():
            supplier = producer.get(node_id)
            if supplier is not None and supplier != index:
                preds[index].add(supplier)
    succs: list[set[int]] = [set() for _ in tasks]
    for index, sources in enumerate(preds):
        for source in sources:
            succs[source].add(index)

    order = _topological(preds)
    up = [0.0] * len(tasks)          # longest chain ending at i
    best_pred: list[int | None] = [None] * len(tasks)
    for index in order:
        best, chosen = 0.0, None
        for source in preds[index]:
            if up[source] > best:
                best, chosen = up[source], source
        up[index] = tasks[index].duration + best
        best_pred[index] = chosen
    down = [0.0] * len(tasks)        # longest chain starting at i
    for index in reversed(order):
        follow = max((down[s] for s in succs[index]), default=0.0)
        down[index] = tasks[index].duration + follow

    critical = max(up, default=0.0)
    path: list[Span] = []
    if tasks:
        cursor: int | None = max(range(len(tasks)),
                                 key=lambda i: (up[i], -tasks[i].start))
        while cursor is not None:
            path.append(tasks[cursor])
            cursor = best_pred[cursor]
        path.reverse()
    on_path = {s.span_id for s in path}
    timings = tuple(
        TaskTiming(span,
                   slack=max(0.0, critical - (up[i] + down[i]
                                              - span.duration)),
                   on_path=span.span_id in on_path)
        for i, span in enumerate(tasks))
    return CriticalPathReport(
        trace_id=selected[0].trace_id,
        flow=flow,
        wall_time=wall,
        busy_time=busy,
        critical_length=critical,
        parallelism=(busy / wall if wall else 1.0),
        tasks=timings,
        path=tuple(path),
    )


def _topological(preds: Sequence[set[int]]) -> list[int]:
    """Kahn's order over predecessor sets (cycles raise)."""
    remaining = [len(p) for p in preds]
    ready = [i for i, count in enumerate(remaining) if count == 0]
    succs: dict[int, list[int]] = {}
    for index, sources in enumerate(preds):
        for source in sources:
            succs.setdefault(source, []).append(index)
    order: list[int] = []
    while ready:
        current = ready.pop()
        order.append(current)
        for successor in succs.get(current, ()):
            remaining[successor] -= 1
            if remaining[successor] == 0:
                ready.append(successor)
    if len(order) != len(preds):
        raise ObservabilityError(
            "task spans form a dependency cycle; trace is inconsistent")
    return order


# ---------------------------------------------------------------------------
# history/statistics.py: derivation_depth and history_statistics
# ---------------------------------------------------------------------------
def derivation_depth(db: HistoryDatabase, instance_id: str) -> int:
    """Longest derivation chain below an instance (0 for installed)."""
    depth: dict[str, int] = {}

    def visit(current: str) -> int:
        if current in depth:
            return depth[current]
        record = db.get(current).derivation
        if record is None:
            depth[current] = 0
            return 0
        value = 1 + max((visit(a) for a in record.all_antecedents()),
                        default=0)
        depth[current] = value
        return value

    return visit(instance_id)


def history_statistics(db: HistoryDatabase) -> HistoryStatistics:
    """Aggregate the whole database into a report."""
    stats = HistoryStatistics()
    blob_users: dict[str, int] = {}
    depths = []
    for instance in db.instances():
        stats.instances += 1
        stats.instances_by_type[instance.entity_type] = \
            stats.instances_by_type.get(instance.entity_type, 0) + 1
        stats.instances_by_user[instance.user] = \
            stats.instances_by_user.get(instance.user, 0) + 1
        if instance.derivation is None:
            stats.installed += 1
        else:
            stats.derived += 1
            if instance.derivation.tool is not None:
                tool = db.get(instance.derivation.tool)
                key = tool.name or tool.entity_type
                stats.tool_runs[key] = stats.tool_runs.get(key, 0) + 1
            depths.append(derivation_depth(db, instance.instance_id))
        if instance.data_ref is None:
            stats._no_data += 1
        else:
            blob_users[instance.data_ref] = \
                blob_users.get(instance.data_ref, 0) + 1
    stats.blobs = len(db.datastore)
    stats.shared_blob_instances = sum(
        count for count in blob_users.values() if count > 1)
    if depths:
        stats.max_depth = max(depths)
        stats.mean_depth = sum(depths) / len(depths)
    return stats


# ---------------------------------------------------------------------------
# history/query.py: template_query, _match, find_bindings, _collect
# ---------------------------------------------------------------------------
def template_query(db: HistoryDatabase, flow: TaskGraph, target_node: str
                   ) -> tuple[EntityInstance, ...]:
    """Use a task graph as a query template (section 4.2).

    Every instance of the target node's type is tested against the flow's
    structure: each supplier edge of a flow node must be mirrored by the
    candidate's derivation record — the tool edge by ``derivation.tool``,
    a data edge by the input recorded under the same role.  Nodes bound
    to instances constrain matches to exactly those instances; unbound,
    unexpanded nodes only constrain the type.

    Unlike plain forward/backward chaining this matches *structure*: a
    template Performance ← {Simulator, Circuit ← {netlist n1}} finds only
    simulations whose circuit was composed from netlist ``n1``, not every
    performance transitively touching ``n1``.
    """
    node = flow.node(target_node)
    candidates = db.browse(node.entity_type)
    memo: dict[tuple[str, str], bool] = {}
    out = [instance for instance in candidates
           if _match(db, flow, target_node, instance.instance_id, memo)]
    out.sort(key=lambda i: (i.timestamp, i.instance_id))
    return tuple(out)


def _match(db: HistoryDatabase, flow: TaskGraph, node_id: str,
           instance_id: str, memo: dict[tuple[str, str], bool]) -> bool:
    key = (node_id, instance_id)
    if key in memo:
        return memo[key]
    memo[key] = False  # cycle guard; flows are DAGs so this is defensive
    node = flow.node(node_id)
    instance = db.get(instance_id)
    if not db.schema.is_subtype(instance.entity_type, node.entity_type):
        return False
    if node.bindings and instance_id not in node.bindings:
        return False
    record = instance.derivation
    for edge in flow.suppliers(node_id):
        if record is None:
            return False
        if edge.is_functional:
            if record.tool is None:
                return False
            if not _match(db, flow, edge.supplier, record.tool, memo):
                return False
        else:
            input_id = record.input_map().get(edge.role)
            if input_id is None:
                return False
            if not _match(db, flow, edge.supplier, input_id, memo):
                return False
    memo[key] = True
    return True


def find_bindings(db: HistoryDatabase, flow: TaskGraph, target_node: str
                  ) -> tuple[dict[str, str], ...]:
    """All consistent node→instance assignments reaching the target.

    A richer variant of :func:`template_query` that, instead of returning
    only target instances, returns full assignments covering the target's
    supplier subtree (useful for recalling a task with all its inputs).
    """
    node = flow.node(target_node)
    assignments: list[dict[str, str]] = []
    for instance in db.browse(node.entity_type):
        binding: dict[str, str] = {}
        if _collect(db, flow, target_node, instance.instance_id, binding):
            assignments.append(binding)
    return tuple(assignments)


def _collect(db: HistoryDatabase, flow: TaskGraph, node_id: str,
             instance_id: str, binding: dict[str, str]) -> bool:
    if node_id in binding:
        return binding[node_id] == instance_id
    if not _match(db, flow, node_id, instance_id, {}):
        return False
    binding[node_id] = instance_id
    instance = db.get(instance_id)
    record = instance.derivation
    for edge in flow.suppliers(node_id):
        if record is None:
            return False
        supplier_instance = (record.tool if edge.is_functional
                             else record.input_map().get(edge.role))
        if supplier_instance is None:
            return False
        if not _collect(db, flow, edge.supplier, supplier_instance,
                        binding):
            return False
    return True


# ---------------------------------------------------------------------------
# core/lisp.py: to_lisp, to_call, flow_equation
# ---------------------------------------------------------------------------
def to_lisp(flow: TaskGraph, node_id: str) -> str:
    """Lisp form: the tool is just another parameter."""
    if not flow.is_expanded(node_id):
        return _atom(flow, node_id)
    parts: list[str] = []
    tool = flow.functional_supplier(node_id)
    if tool is not None:
        parts.append(to_lisp(flow, tool))
    parts.extend(to_lisp(flow, supplier)
                 for supplier in _ordered_inputs(flow, node_id))
    return "(" + ", ".join(parts) + ")"


def to_call(flow: TaskGraph, node_id: str) -> str:
    """C/Pascal-style call form: ``tool(arg, ...)``."""
    if not flow.is_expanded(node_id):
        return _atom(flow, node_id)
    tool = flow.functional_supplier(node_id)
    args = ", ".join(to_call(flow, supplier)
                     for supplier in _ordered_inputs(flow, node_id))
    if tool is None:
        return f"compose_{_atom(flow, node_id)}({args})"
    return f"{to_call(flow, tool)}({args})" if flow.is_expanded(tool) \
        else f"{_atom(flow, tool)}({args})"


def flow_equation(flow: TaskGraph, node_id: str,
                  style: str = "lisp") -> str:
    """Full equation ``goal <- body`` in the requested style."""
    body = to_lisp(flow, node_id) if style == "lisp" \
        else to_call(flow, node_id)
    return f"{_atom(flow, node_id)} <- {body}"
