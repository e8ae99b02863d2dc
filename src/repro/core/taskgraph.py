"""The task graph: representation of a dynamically defined flow.

Section 3.2: *"A task graph is a directed acyclic graph, with each node in
the graph corresponding to an entity in the task schema, and each edge
corresponding to a dependency.  A dynamically defined flow (represented by
a task graph) is a temporary structure that can be built up by the designer
as desired (subject to the rules in the task schema)."*

Beyond node/edge bookkeeping this module implements the **subtask
coalescing rule** (DESIGN.md decision 1): output nodes that share the same
tool node and exactly the same input nodes belong to one
:class:`TaskInvocation` and execute as a single tool run with multiple
outputs — the Fig. 5 structure ("multiple outputs from the same subtask").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from ..dag import CycleError, reachable, reaches, topological
from ..errors import ExpansionError, FlowError
from ..schema.dependency import DepKind
from ..schema.schema import TaskSchema
from .node import FlowEdge, FlowNode


@dataclass(frozen=True)
class TaskInvocation:
    """One coalesced primitive-task execution.

    ``tool_node`` is ``None`` for composed entities (the implicit
    composition function runs instead of a tool).  ``outputs`` lists every
    node this invocation produces; ``inputs`` maps each output node to its
    ``role -> supplier node`` mapping (identical across outputs by
    construction of the coalescing key, except for role names).
    """

    tool_node: str | None
    outputs: tuple[str, ...]
    inputs: tuple[tuple[str, str], ...]  # sorted (role, supplier-node) pairs

    @property
    def input_nodes(self) -> tuple[str, ...]:
        return tuple(supplier for _, supplier in self.inputs)

    def role_map(self) -> dict[str, str]:
        return dict(self.inputs)


class TaskGraph:
    """A mutable DAG of :class:`FlowNode` / :class:`FlowEdge`.

    All mutating operations validate against the task schema immediately,
    so a task graph can never leave the set of flows the methodology
    permits — this is how dynamically defined flows keep the advantages of
    flow-based methodology management without the "flow straight-jacket".
    """

    def __init__(self, schema: TaskSchema, name: str = "flow") -> None:
        self.schema = schema
        self.name = name
        self._nodes: dict[str, FlowNode] = {}
        self._edges: list[FlowEdge] = []
        # the per-node index (SNIPPETS §1): each node's supplier edges
        # and consumer edges, in the order of ``_edges``
        self._supplier_edges: dict[str, list[FlowEdge]] = {}
        self._consumer_edges: dict[str, list[FlowEdge]] = {}
        self._counter = itertools.count()

    # ------------------------------------------------------------------
    # node / edge management
    # ------------------------------------------------------------------
    def add_node(self, entity_type: str, *, explicit: bool = False,
                 label: str = "") -> FlowNode:
        """Place a node of the given entity type into the flow."""
        self.schema.entity(entity_type)  # raises for unknown types
        node_id = f"n{next(self._counter)}"
        node = FlowNode(node_id, entity_type, explicit=explicit, label=label)
        self._nodes[node_id] = node
        return node

    def remove_node(self, node_id: str) -> None:
        """Remove a node and every edge touching it."""
        self.node(node_id)
        self._drop([*self._supplier_edges.pop(node_id, ()),
                    *self._consumer_edges.pop(node_id, ())])
        del self._nodes[node_id]

    def node(self, node_id: str) -> FlowNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise FlowError(f"no node {node_id!r} in flow {self.name!r}"
                            ) from None

    def nodes(self) -> tuple[FlowNode, ...]:
        return tuple(self._nodes.values())

    def node_ids(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    def edges(self) -> tuple[FlowEdge, ...]:
        return tuple(self._edges)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __iter__(self) -> Iterator[FlowNode]:
        return iter(self._nodes.values())

    def nodes_of_type(self, entity_type: str,
                      include_subtypes: bool = True) -> tuple[FlowNode, ...]:
        """All nodes whose type is (or specializes) ``entity_type``."""
        if include_subtypes:
            return tuple(
                n for n in self._nodes.values()
                if self.schema.is_subtype(n.entity_type, entity_type))
        return tuple(n for n in self._nodes.values()
                     if n.entity_type == entity_type)

    # ------------------------------------------------------------------
    # connecting nodes (schema-checked)
    # ------------------------------------------------------------------
    def connect(self, consumer_id: str, supplier_id: str, *,
                role: str | None = None) -> FlowEdge:
        """Add a dependency edge ``consumer --> supplier``.

        The edge must correspond to a dependency of the consumer's entity
        type in the schema: either its functional dependency (supplier is
        the tool) or one of its data dependencies (matched by ``role``, or
        inferred when exactly one unconnected role accepts the supplier's
        type).
        """
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
        if reaches(supplier_id, consumer_id, self._supplier_ids,
                   self._consumer_ids):
            raise FlowError(
                f"edge {consumer} -> {supplier} would create a cycle; "
                "task graphs are acyclic")
        edge = FlowEdge(consumer_id, supplier_id, dep.kind, dep.role,
                        dep.optional)
        self._add(edge)
        return edge

    def disconnect(self, consumer_id: str, supplier_id: str,
                   role: str | None = None) -> None:
        """Remove edges between the two nodes (optionally one role)."""
        edges = [e for e in self._supplier_edges.get(consumer_id, ())
                 if e.supplier == supplier_id
                 and (role is None or e.role == role)]
        if not edges:
            raise FlowError(
                f"no edge {consumer_id} -> {supplier_id} (role={role!r})")
        self._drop(edges)

    def _add(self, edge: FlowEdge) -> None:
        self._edges.append(edge)
        self._supplier_edges.setdefault(edge.consumer, []).append(edge)
        self._consumer_edges.setdefault(edge.supplier, []).append(edge)

    def _drop(self, edges: list[FlowEdge]) -> None:
        """Remove ``edges`` from the edge list and from the index."""
        gone = set(edges)
        self._edges = [e for e in self._edges if e not in gone]
        for edge in gone:
            for index, node_id in ((self._supplier_edges, edge.consumer),
                                   (self._consumer_edges, edge.supplier)):
                if node_id in index:
                    index[node_id] = [e for e in index[node_id]
                                      if e not in gone]

    def _resolve_dependency(self, consumer: FlowNode, supplier: FlowNode,
                            role: str | None):
        deps = self.schema.effective_dependencies(consumer.entity_type)
        if not deps:
            raise ExpansionError(
                f"{consumer}: entity type {consumer.entity_type!r} has no "
                "dependencies (source or abstract type); specialize it "
                "before connecting inputs")
        candidates = []
        for dep in deps:
            if role is not None and (dep.role != role
                                     or dep.is_functional):
                continue
            if self.schema.is_subtype(supplier.entity_type, dep.target):
                candidates.append(dep)
        if role is None:
            # prefer exact matches and unconnected roles
            connected = self._connected_roles(consumer.node_id)
            has_tool = self.functional_supplier(consumer.node_id) is not None
            open_candidates = [
                d for d in candidates
                if (d.is_functional and not has_tool)
                or (d.is_data and d.role not in connected)
            ]
            if len(open_candidates) == 1:
                return open_candidates[0]
            if not open_candidates:
                raise FlowError(
                    f"{consumer}: no open dependency accepts a "
                    f"{supplier.entity_type!r}")
            raise FlowError(
                f"{consumer}: ambiguous connection for "
                f"{supplier.entity_type!r}; specify role= one of "
                f"{sorted(d.role for d in open_candidates)}")
        if not candidates:
            raise FlowError(
                f"{consumer}: no data dependency with role {role!r} "
                f"accepting a {supplier.entity_type!r}")
        return candidates[0]

    def _connected_roles(self, consumer_id: str) -> set[str]:
        return {e.role for e in self._supplier_edges.get(consumer_id, ())
                if e.is_data}

    # ------------------------------------------------------------------
    # structural queries
    # ------------------------------------------------------------------
    def suppliers(self, node_id: str) -> tuple[FlowEdge, ...]:
        """Outgoing dependency edges (things this node needs)."""
        return tuple(self._supplier_edges.get(node_id, ()))

    def consumers(self, node_id: str) -> tuple[FlowEdge, ...]:
        """Incoming dependency edges (things needing this node)."""
        return tuple(self._consumer_edges.get(node_id, ()))

    def functional_supplier(self, node_id: str) -> str | None:
        """The tool node connected to this node, if any."""
        for edge in self._supplier_edges.get(node_id, ()):
            if edge.is_functional:
                return edge.supplier
        return None

    def data_suppliers(self, node_id: str) -> dict[str, str]:
        """Mapping ``role -> supplier node id`` of connected data inputs."""
        return {e.role: e.supplier
                for e in self._supplier_edges.get(node_id, ()) if e.is_data}

    def is_expanded(self, node_id: str) -> bool:
        """True if the node's construction has been brought into the flow.

        A node counts as expanded when it has a tool edge, or (for
        composed entities) at least one data input edge.
        """
        return bool(self.suppliers(node_id))

    def leaves(self) -> tuple[FlowNode, ...]:
        """Nodes with no suppliers: the flow's external inputs.

        Section 4.1: once instances have been selected for the leaf
        nodes, the non-leaf nodes become executable.
        """
        return tuple(n for n in self._nodes.values()
                     if not self.suppliers(n.node_id))

    def goals(self) -> tuple[FlowNode, ...]:
        """Nodes no other node depends on: the flow's outputs."""
        return tuple(n for n in self._nodes.values()
                     if not self.consumers(n.node_id))

    def subtree(self, node_id: str) -> set[str]:
        """Node ids reachable from ``node_id`` through supplier edges."""
        return reachable(node_id, self._supplier_ids)

    def dependents(self, node_id: str) -> set[str]:
        """Node ids reachable from ``node_id`` through consumer edges."""
        return reachable(node_id, self._consumer_ids)

    def topological_order(self) -> tuple[str, ...]:
        """Node ids ordered suppliers-first (execution order)."""
        try:
            return tuple(topological(self._nodes, self._supplier_ids))
        except CycleError:
            raise FlowError("task graph contains a cycle") from None

    def _supplier_ids(self, node_id: str) -> list[str]:
        return [e.supplier for e in self._supplier_edges.get(node_id, ())]

    def _consumer_ids(self, node_id: str) -> list[str]:
        return [e.consumer for e in self._consumer_edges.get(node_id, ())]

    def disjoint_branches(self) -> tuple[frozenset[str], ...]:
        """Weakly connected components of the graph.

        Disjoint branches can execute in parallel, possibly on different
        machines (Fig. 6).
        """
        parent: dict[str, str] = {n: n for n in self._nodes}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for edge in self._edges:
            ra, rb = find(edge.consumer), find(edge.supplier)
            if ra != rb:
                parent[ra] = rb
        groups: dict[str, set[str]] = {}
        for node_id in self._nodes:
            groups.setdefault(find(node_id), set()).add(node_id)
        return tuple(frozenset(g) for g in groups.values())

    # ------------------------------------------------------------------
    # subtask coalescing (Fig. 5)
    # ------------------------------------------------------------------
    def invocations(self) -> tuple[TaskInvocation, ...]:
        """Group expanded nodes into coalesced task invocations.

        Output nodes sharing the same tool node and exactly the same
        supplier nodes form a single invocation; the tool runs once and
        produces all of them.  Composed nodes (no tool edge but data
        edges) each form their own composition invocation.
        """
        by_key: dict[tuple, list[str]] = {}
        for node in self._nodes.values():
            if not self.is_expanded(node.node_id):
                continue
            tool = self.functional_supplier(node.node_id)
            suppliers = frozenset(self.data_suppliers(node.node_id).items())
            if tool is None:
                # composed entities never coalesce with each other
                key = ("composed", node.node_id)
            else:
                # outputs coalesce only when tool, suppliers AND role
                # names agree — the tool then runs once for all of them
                key = ("tool", tool, suppliers)
            by_key.setdefault(key, []).append(node.node_id)
        out: list[TaskInvocation] = []
        for key, outputs in by_key.items():
            primary = outputs[0]
            inputs = tuple(sorted(self.data_suppliers(primary).items()))
            tool = self.functional_supplier(primary)
            out.append(TaskInvocation(tool, tuple(sorted(outputs)), inputs))
        return tuple(out)

    def invocation_for(self, node_id: str) -> TaskInvocation:
        """The invocation that produces the given node."""
        for invocation in self.invocations():
            if node_id in invocation.outputs:
                return invocation
        raise FlowError(f"node {node_id!r} is not produced by any "
                        "invocation (unexpanded?)")

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> tuple[str, ...]:
        """Re-check every structural invariant of the flow; return the
        topological order the acyclicity check computed."""
        order = self.topological_order()  # raises on cycles
        for edge in self._edges:
            consumer = self.node(edge.consumer)
            supplier = self.node(edge.supplier)
            deps = self.schema.effective_dependencies(consumer.entity_type)
            matching = [
                d for d in deps
                if d.kind is edge.kind and d.role == edge.role
                and self.schema.is_subtype(supplier.entity_type, d.target)
            ]
            if not matching:
                raise FlowError(
                    f"edge {edge} does not correspond to any schema "
                    f"dependency of {consumer.entity_type!r}")
        for node in self._nodes.values():
            functional_edges = [e for e in self.suppliers(node.node_id)
                                if e.is_functional]
            if len(functional_edges) > 1:
                raise FlowError(f"{node}: multiple tool edges")
            roles = [e.role for e in self.suppliers(node.node_id)
                     if e.is_data]
            if len(roles) != len(set(roles)):
                raise FlowError(f"{node}: duplicate input roles")
        return order

    def missing_inputs(self, node_id: str) -> tuple[str, ...]:
        """Mandatory roles of an expanded node not yet connected."""
        node = self.node(node_id)
        construction = self.schema.construction(node.entity_type)
        if construction is None:
            return ()
        connected = self._connected_roles(node_id)
        return tuple(d.role for d in construction.required_inputs
                     if d.role not in connected)

    # ------------------------------------------------------------------
    # copying / serialization
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "TaskGraph":
        """Deep-copy the flow (bindings and results are preserved)."""
        clone = TaskGraph(self.schema, name or self.name)
        for node in self._nodes.values():
            copied = FlowNode(node.node_id, node.entity_type,
                              original_type=node.original_type,
                              explicit=node.explicit,
                              bindings=node.bindings,
                              produced=node.produced,
                              label=node.label)
            clone._nodes[node.node_id] = copied
        for edge in self._edges:
            clone._add(edge)
        used = [int(n[1:]) for n in self._nodes if n[1:].isdigit()]
        clone._counter = itertools.count(max(used) + 1 if used else 0)
        return clone

    def to_dict(self) -> dict:
        """JSON-safe structural snapshot (used by the flow catalog)."""
        return {
            "name": self.name,
            "schema": self.schema.name,
            "nodes": [
                {
                    "id": n.node_id,
                    "type": n.entity_type,
                    "original_type": n.original_type,
                    "explicit": n.explicit,
                    "bindings": list(n.bindings),
                    "produced": list(n.produced),
                    "label": n.label,
                }
                for n in self._nodes.values()
            ],
            "edges": [
                {
                    "consumer": e.consumer,
                    "supplier": e.supplier,
                    "kind": e.kind.value,
                    "role": e.role,
                    "optional": e.optional,
                }
                for e in self._edges
            ],
        }

    @classmethod
    def from_dict(cls, schema: TaskSchema, payload: dict) -> "TaskGraph":
        """Rebuild a flow snapshot against the given schema."""
        graph = cls(schema, payload.get("name", "flow"))
        for spec in payload.get("nodes", ()):
            node = FlowNode(spec["id"], spec["type"],
                            original_type=spec.get("original_type",
                                                   spec["type"]),
                            explicit=bool(spec.get("explicit", False)),
                            bindings=tuple(spec.get("bindings", ())),
                            produced=tuple(spec.get("produced", ())),
                            label=spec.get("label", ""))
            graph._nodes[node.node_id] = node
        for spec in payload.get("edges", ()):
            graph._add(FlowEdge(
                spec["consumer"], spec["supplier"],
                DepKind(spec["kind"]), spec["role"],
                bool(spec.get("optional", False))))
        used = [int(n[1:]) for n in graph._nodes if n[1:].isdigit()]
        graph._counter = itertools.count(max(used) + 1 if used else 0)
        graph.validate()
        return graph

    def __repr__(self) -> str:
        return (f"TaskGraph({self.name!r}, {len(self._nodes)} nodes, "
                f"{len(self._edges)} edges)")
