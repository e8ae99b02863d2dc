"""The flat scans that the per-node indexes replaced.

:class:`FlatTaskGraph` answers every neighbour query of a task graph by
scanning its whole edge list, and :class:`FlatTaskSchema` answers a
type's dependencies by scanning the schema's whole dependency list and
recomputes ``effective_dependencies`` on every call.  Their methods are
the implementations the indexed classes replaced, moved here verbatim
except that a flat graph copies to a flat graph; everything else is
inherited.  ``trace_render`` is ``FlowTrace.render`` as it was, one
scan of the trace's edges per instance.  ``tests/test_indexes.py``
demands the same answers and errors from the indexed classes, and the
same text from ``render``, on random scripts.
"""

from __future__ import annotations

import itertools

from repro.core.node import FlowEdge, FlowNode
from repro.core.taskgraph import TaskGraph
from repro.errors import DependencyError, FlowError, UnknownEntityError
from repro.history.trace import FlowTrace
from repro.schema.dependency import DepKind, Dependency
from repro.schema.schema import TaskSchema


class FlatTaskGraph(TaskGraph):
    """A task graph that keeps nothing but the flat edge list."""

    def _add(self, edge: FlowEdge) -> None:
        self._edges.append(edge)

    def remove_node(self, node_id: str) -> None:
        """Remove a node and every edge touching it."""
        self.node(node_id)
        self._edges = [e for e in self._edges
                       if node_id not in (e.consumer, e.supplier)]
        del self._nodes[node_id]

    def disconnect(self, consumer_id: str, supplier_id: str,
                   role: str | None = None) -> None:
        """Remove edges between the two nodes (optionally one role)."""
        before = len(self._edges)
        self._edges = [
            e for e in self._edges
            if not (e.consumer == consumer_id and e.supplier == supplier_id
                    and (role is None or e.role == role))
        ]
        if len(self._edges) == before:
            raise FlowError(
                f"no edge {consumer_id} -> {supplier_id} (role={role!r})")

    def _connected_roles(self, consumer_id: str) -> set[str]:
        return {e.role for e in self._edges
                if e.consumer == consumer_id and e.is_data}

    def suppliers(self, node_id: str) -> tuple[FlowEdge, ...]:
        """Outgoing dependency edges (things this node needs)."""
        return tuple(e for e in self._edges if e.consumer == node_id)

    def consumers(self, node_id: str) -> tuple[FlowEdge, ...]:
        """Incoming dependency edges (things needing this node)."""
        return tuple(e for e in self._edges if e.supplier == node_id)

    def functional_supplier(self, node_id: str) -> str | None:
        """The tool node connected to this node, if any."""
        for edge in self._edges:
            if edge.consumer == node_id and edge.is_functional:
                return edge.supplier
        return None

    def data_suppliers(self, node_id: str) -> dict[str, str]:
        """Mapping ``role -> supplier node id`` of connected data inputs."""
        return {e.role: e.supplier for e in self._edges
                if e.consumer == node_id and e.is_data}

    def _supplier_ids(self, node_id: str) -> list[str]:
        return [e.supplier for e in self._edges if e.consumer == node_id]

    def _consumer_ids(self, node_id: str) -> list[str]:
        return [e.consumer for e in self._edges if e.supplier == node_id]

    def copy(self, name: str | None = None) -> "FlatTaskGraph":
        """Deep-copy the flow (bindings and results are preserved)."""
        clone = FlatTaskGraph(self.schema, name or self.name)
        for node in self._nodes.values():
            copied = FlowNode(node.node_id, node.entity_type,
                              original_type=node.original_type,
                              explicit=node.explicit,
                              bindings=node.bindings,
                              produced=node.produced,
                              label=node.label)
            clone._nodes[node.node_id] = copied
        clone._edges = list(self._edges)
        used = [int(n[1:]) for n in self._nodes if n[1:].isdigit()]
        clone._counter = itertools.count(max(used) + 1 if used else 0)
        return clone


class FlatTaskSchema(TaskSchema):
    """A task schema that keeps nothing but the flat dependency list."""

    def add_dependency(self, dep: Dependency) -> Dependency:
        """Add a dependency arc between two declared entity types."""
        for endpoint in (dep.source, dep.target):
            if endpoint not in self._entities:
                raise UnknownEntityError(endpoint)
        if dep.is_functional:
            existing = [d for d in self._deps
                        if d.source == dep.source and d.is_functional]
            if existing:
                raise DependencyError(
                    f"entity {dep.source!r} already has a functional "
                    f"dependency on {existing[0].target!r}; at most one is "
                    "allowed"
                )
            if not self._entities[dep.target].is_tool:
                raise DependencyError(
                    f"{dep}: functional dependencies must point at a tool "
                    "entity"
                )
            if self._entities[dep.source].composed:
                raise DependencyError(
                    f"{dep}: composed entities have no functional dependency"
                )
        else:
            same_role = [d for d in self._deps
                         if d.source == dep.source and d.is_data
                         and d.role == dep.role]
            if same_role:
                raise DependencyError(
                    f"{dep}: role {dep.role!r} already used by "
                    f"{same_role[0]}"
                )
        self._deps.append(dep)
        return dep

    def own_dependencies(self, name: str) -> tuple[Dependency, ...]:
        """Dependencies declared directly on an entity type."""
        self.entity(name)
        return tuple(d for d in self._deps if d.source == name)

    def effective_dependencies(self, name: str) -> tuple[Dependency, ...]:
        """Dependencies of a type including those inherited."""
        chain = [name, *self.ancestors_of(name)]
        functional_dep: Dependency | None = None
        data_by_role: dict[str, Dependency] = {}
        # Walk from the root down so more-derived declarations win.
        for type_name in reversed(chain):
            own = self.own_dependencies(type_name)
            own_functional = [d for d in own if d.is_functional]
            if own_functional:
                functional_dep = own_functional[0]
            for dep in own:
                if dep.is_data:
                    data_by_role[dep.role] = dep
        deps: list[Dependency] = []
        if functional_dep is not None:
            deps.append(functional_dep)
        deps.extend(data_by_role.values())
        return tuple(deps)


def trace_render(trace: FlowTrace) -> str:
    lines = ["flow trace:"]
    for instance_id in sorted(trace._instances):
        instance = trace.db.get(instance_id)
        lines.append(f"  {instance_id} ({instance.entity_type}"
                     f"{', ' + instance.name if instance.name else ''})")
        for edge in sorted(trace.suppliers(instance_id),
                           key=lambda e: (e.kind.value, e.role)):
            tag = "f" if edge.kind is DepKind.FUNCTIONAL else "d"
            lines.append(f"    --{tag}:{edge.role}--> {edge.supplier}")
    return "\n".join(lines)
