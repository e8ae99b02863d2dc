"""Flow traces and version trees (paper section 4.2, Fig. 11).

A **flow trace** is the instance-level image of a flow: a DAG whose nodes
are entity *instances* and whose edges come from derivation records.  The
paper: *"Our representation — a flow trace — is a semantically richer
superset of a version tree, not only showing the relationship between the
data, but also showing the tools that were used in creating that data."*

:func:`backward_trace` / :func:`forward_trace` build traces by chaining
through the history database; :meth:`FlowTrace.version_tree` projects a
trace onto the classical version tree by keeping only data instances of
one entity family connected through *editing* tasks; and
:meth:`FlowTrace.to_task_graph` converts a trace back into an executable
task graph — which is how previously executed tasks are *"recalled,
possibly modified, and executed"* (end of section 4.1) and how automatic
retracing works.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.taskgraph import TaskGraph
from ..errors import HistoryError
from ..schema.dependency import DepKind
from .database import HistoryDatabase
from .instance import EntityInstance


@dataclass(frozen=True)
class TraceEdge:
    """``consumer`` instance depends on ``supplier`` instance."""

    consumer: str
    supplier: str
    kind: DepKind
    role: str

    def __str__(self) -> str:
        tag = "f" if self.kind is DepKind.FUNCTIONAL else "d"
        return f"{self.consumer} --{tag}:{self.role}--> {self.supplier}"


@dataclass(frozen=True)
class VersionNode:
    """One node of a projected version tree."""

    instance_id: str
    parent_id: str | None
    tool_id: str | None  # the editing tool run — absent in classic trees


class FlowTrace:
    """An instance-level derivation DAG."""

    def __init__(self, db: HistoryDatabase) -> None:
        self.db = db
        self._instances: set[str] = set()
        # insertion-ordered edge set: membership stays O(1) on the
        # 10^5-instance traces the indexed backends make reachable
        self._edges: dict[TraceEdge, None] = {}

    # -- construction ------------------------------------------------
    def add_instance(self, instance_id: str) -> None:
        self.db.get(instance_id)
        self._instances.add(instance_id)

    def add_derivation_edges(self, instance_id: str) -> tuple[str, ...]:
        """Add the immediate antecedents of an instance; return new ids."""
        instance = self.db.get(instance_id)
        self.add_instance(instance_id)
        if instance.derivation is None:
            return ()
        added: list[str] = []
        record = instance.derivation
        if record.tool is not None:
            if record.tool not in self._instances:
                added.append(record.tool)
            self.add_instance(record.tool)
            self._add_edge(TraceEdge(instance_id, record.tool,
                                     DepKind.FUNCTIONAL, "tool"))
        for role, input_id in record.inputs:
            if input_id not in self._instances:
                added.append(input_id)
            self.add_instance(input_id)
            self._add_edge(TraceEdge(instance_id, input_id,
                                     DepKind.DATA, role))
        return tuple(added)

    def _add_edge(self, edge: TraceEdge) -> None:
        self._edges.setdefault(edge)

    # -- inspection ----------------------------------------------------
    def instances(self) -> tuple[str, ...]:
        return tuple(sorted(self._instances))

    def edges(self) -> tuple[TraceEdge, ...]:
        return tuple(self._edges)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._instances

    def __len__(self) -> int:
        return len(self._instances)

    def suppliers(self, instance_id: str) -> tuple[TraceEdge, ...]:
        return tuple(e for e in self._edges if e.consumer == instance_id)

    def consumers(self, instance_id: str) -> tuple[TraceEdge, ...]:
        return tuple(e for e in self._edges if e.supplier == instance_id)

    def roots(self) -> tuple[str, ...]:
        """Instances in the trace nothing else in the trace depends on."""
        consumed = {e.supplier for e in self._edges}
        return tuple(sorted(self._instances - consumed))

    def sources(self) -> tuple[str, ...]:
        """Instances in the trace with no suppliers inside the trace."""
        consuming = {e.consumer for e in self._edges}
        return tuple(sorted(self._instances - consuming))

    # -- projections -----------------------------------------------------
    def version_tree(self, family_root: str) -> tuple[VersionNode, ...]:
        """Project the trace to a classical version tree (Fig. 11a).

        ``family_root`` is the root entity type of the version family
        (e.g. ``"Netlist"``).  An instance's parent version is the input
        of its *editing* derivation — the data input whose type belongs to
        the same family (section 4.2's characterization of editing tasks).
        Unlike the trace (Fig. 11b), the projection discards which tool
        made each version, which is exactly the information loss the
        paper criticizes; the ``tool_id`` field records what was lost.
        """
        schema = self.db.schema
        nodes: list[VersionNode] = []
        for instance_id in sorted(self._instances):
            instance = self.db.get(instance_id)
            if not schema.is_subtype(instance.entity_type, family_root):
                continue
            tool_id = (instance.derivation.tool
                       if instance.derivation is not None else None)
            nodes.append(VersionNode(
                instance_id, _parent_version(self.db, instance, family_root),
                tool_id))
        return tuple(nodes)

    def to_task_graph(self, name: str = "recalled-flow") -> TaskGraph:
        """Rebuild a bound task graph from this trace.

        Every instance becomes a node of its entity type with the
        instance bound; trace edges become flow edges.  The result
        validates against the schema (the history was schema-checked when
        written) and can be re-executed — the recall path of section 4.1
        and the retracing path of consistency maintenance.
        """
        graph = TaskGraph(self.db.schema, name)
        by_instance: dict[str, str] = {}
        for instance_id in sorted(self._instances):
            instance = self.db.get(instance_id)
            node = graph.add_node(instance.entity_type,
                                  label=instance.name or instance_id)
            node.bind(instance_id)
            by_instance[instance_id] = node.node_id
        for edge in self._edges:
            role = None if edge.kind is DepKind.FUNCTIONAL else edge.role
            graph.connect(by_instance[edge.consumer],
                          by_instance[edge.supplier], role=role)
        graph.validate()
        return graph

    def render(self) -> str:
        """Deterministic text rendering (the Fig. 10/11 style)."""
        suppliers: dict[str, list[TraceEdge]] = {}  # one pass, edge order
        for edge in self._edges:
            suppliers.setdefault(edge.consumer, []).append(edge)
        lines = ["flow trace:"]
        for instance_id in sorted(self._instances):
            instance = self.db.get(instance_id)
            lines.append(f"  {instance_id} ({instance.entity_type}"
                         f"{', ' + instance.name if instance.name else ''})")
            for edge in sorted(suppliers.get(instance_id, ()),
                               key=lambda e: (e.kind.value, e.role)):
                tag = "f" if edge.kind is DepKind.FUNCTIONAL else "d"
                lines.append(f"    --{tag}:{edge.role}--> {edge.supplier}")
        return "\n".join(lines)


def backward_trace(db: HistoryDatabase, instance_id: str, *,
                   depth: int | None = None) -> FlowTrace:
    """Derivation history of an instance (backward chaining, Fig. 10).

    ``depth=1`` reveals only the immediate tool and inputs — exactly the
    browser's *History* pop-up; ``None`` chases the derivation to its
    sources.
    """
    trace = FlowTrace(db)
    trace.add_instance(instance_id)
    frontier: list[tuple[str, int]] = [(instance_id, 0)]
    while frontier:
        current, level = frontier.pop(0)
        if depth is not None and level >= depth:
            continue
        for added in trace.add_derivation_edges(current):
            frontier.append((added, level + 1))
    return trace


def forward_trace(db: HistoryDatabase, instance_id: str, *,
                  depth: int | None = None) -> FlowTrace:
    """Everything depending on an instance (forward chaining).

    E.g. *"finding all of the circuit performances derived from a given
    netlist"* — section 4.2.
    """
    trace = FlowTrace(db)
    trace.add_instance(instance_id)
    frontier: list[tuple[str, int]] = [(instance_id, 0)]
    seen = {instance_id}
    while frontier:
        current, level = frontier.pop(0)
        if depth is not None and level >= depth:
            continue
        for consumer in db.consumers_of(current):
            trace.add_derivation_edges(consumer)
            if consumer not in seen:
                seen.add(consumer)
                frontier.append((consumer, level + 1))
    return trace


def full_trace(db: HistoryDatabase, instance_id: str) -> FlowTrace:
    """Backward and forward closure around an instance."""
    trace = backward_trace(db, instance_id)
    forward = forward_trace(db, instance_id)
    for other in forward.instances():
        trace.add_instance(other)
        trace.add_derivation_edges(other)
    return trace


def _parent_version(db: HistoryDatabase, instance: EntityInstance,
                    family_root: str) -> str | None:
    """The version an instance was edited from, if any.

    Section 4.2's editing task read off one derivation record: the
    parent version is the first data input whose type belongs to the
    family.  :func:`lineage` and :meth:`FlowTrace.version_tree` climb
    this link; staleness queries walk it downward.
    """
    if instance.derivation is None:
        return None
    schema = db.schema
    for _, input_id in instance.derivation.inputs:
        if schema.is_subtype(db.get(input_id).entity_type, family_root):
            return input_id
    return None


def lineage(db: HistoryDatabase, instance_id: str,
            family_root: str | None = None) -> tuple[str, ...]:
    """Chain of ancestor versions of an instance (oldest first).

    Follows editing derivations within the instance's entity family.
    """
    instance = db.get(instance_id)
    root = family_root if family_root is not None \
        else db.schema.root_of(instance.entity_type)
    chain = [instance_id]
    seen = {instance_id}
    parent_id = _parent_version(db, instance, root)
    while parent_id is not None:
        if parent_id in seen:
            raise HistoryError(
                f"version lineage of {instance_id!r} contains a cycle")
        chain.append(parent_id)
        seen.add(parent_id)
        parent_id = _parent_version(db, db.get(parent_id), root)
    chain.reverse()
    return tuple(chain)
