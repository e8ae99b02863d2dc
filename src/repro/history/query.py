"""Queries into the design history database (paper section 4.2).

Three query families:

* **backward-chaining** — :func:`derivation_inputs`, and
  :func:`antecedents_of_type` (*"find the netlist that was extracted from
  this layout"*);
* **forward-chaining** — :func:`dependents_of_type` (*"find all of the
  circuit performances derived from a given netlist"*, the browser's
  *Use Dependencies* option);
* **template queries** — :func:`template_query` uses a task graph itself
  as the query form: bind some nodes to instances, pick a target node,
  and get every instance that fits the flow's structure (*"find the
  simulations that were performed for this netlist"*).
"""

from __future__ import annotations

from ..core.taskgraph import TaskGraph
from .database import HistoryDatabase
from .instance import EntityInstance
from .trace import backward_trace, forward_trace


def derivation_inputs(db: HistoryDatabase, instance_id: str
                      ) -> dict[str, EntityInstance]:
    """Immediate inputs of an instance, by role (the History pop-up)."""
    instance = db.get(instance_id)
    if instance.derivation is None:
        return {}
    return {role: db.get(input_id)
            for role, input_id in instance.derivation.inputs}


def derivation_tool(db: HistoryDatabase, instance_id: str
                    ) -> EntityInstance | None:
    """The tool instance that produced an instance, if derived."""
    instance = db.get(instance_id)
    if instance.derivation is None or instance.derivation.tool is None:
        return None
    return db.get(instance.derivation.tool)


def antecedents_of_type(db: HistoryDatabase, instance_id: str,
                        entity_type: str, *,
                        include_subtypes: bool = True
                        ) -> tuple[EntityInstance, ...]:
    """Backward-chain: instances of a type in the derivation history."""
    trace = backward_trace(db, instance_id)
    return _filter_trace(db, trace.instances(), entity_type,
                         include_subtypes, exclude=instance_id)


def dependents_of_type(db: HistoryDatabase, instance_id: str,
                       entity_type: str, *,
                       include_subtypes: bool = True
                       ) -> tuple[EntityInstance, ...]:
    """Forward-chain: instances of a type that depend on this instance."""
    trace = forward_trace(db, instance_id)
    return _filter_trace(db, trace.instances(), entity_type,
                         include_subtypes, exclude=instance_id)


def _filter_trace(db: HistoryDatabase, ids, entity_type: str,
                  include_subtypes: bool, exclude: str
                  ) -> tuple[EntityInstance, ...]:
    db.schema.entity(entity_type)
    out = []
    for instance_id in ids:
        if instance_id == exclude:
            continue
        instance = db.get(instance_id)
        if include_subtypes:
            match = db.schema.is_subtype(instance.entity_type, entity_type)
        else:
            match = instance.entity_type == entity_type
        if match:
            out.append(instance)
    out.sort(key=lambda i: (i.timestamp, i.instance_id))
    return tuple(out)


def was_performed(db: HistoryDatabase, goal_type: str,
                  **role_bindings: str) -> tuple[EntityInstance, ...]:
    """Has a task already produced a ``goal_type`` from these inputs?

    Section 3.3's consistency example: *"a query such as 'find the
    netlist that was extracted from this layout' could determine whether
    such an extraction had yet been performed"*.  Returns the matching
    instances (empty tuple: the task still needs to run).
    """
    matches = []
    for instance in db.browse(goal_type):
        if instance.derivation is None:
            continue
        inputs = instance.derivation.input_map()
        if all(inputs.get(role) == instance_id
               for role, instance_id in role_bindings.items()):
            matches.append(instance)
    return tuple(matches)


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
    matched: set[tuple[str, str]] = set()
    out = []
    for instance in db.browse(node.entity_type):
        pairs = _pairs(db, flow, target_node, instance.instance_id, matched)
        if pairs is not None:
            matched.update(pairs)
            out.append(instance)
    out.sort(key=lambda i: (i.timestamp, i.instance_id))
    return tuple(out)


def find_bindings(db: HistoryDatabase, flow: TaskGraph, target_node: str
                  ) -> tuple[dict[str, str], ...]:
    """All consistent node→instance assignments reaching the target.

    A richer variant of :func:`template_query` that, instead of returning
    only target instances, returns full assignments covering the target's
    supplier subtree (useful for recalling a task with all its inputs).
    A candidate whose subtree reaches one node through two instances
    has no single assignment and is left out.
    """
    node = flow.node(target_node)
    assignments: list[dict[str, str]] = []
    for instance in db.browse(node.entity_type):
        pairs = _pairs(db, flow, target_node, instance.instance_id)
        if pairs is not None:
            binding = dict(pairs)
            if len(binding) == len(pairs):
                assignments.append(binding)
    return tuple(assignments)


def _pairs(db: HistoryDatabase, flow: TaskGraph, node_id: str,
           instance_id: str,
           matched: set[tuple[str, str]] | frozenset = frozenset()
           ) -> list[tuple[str, str]] | None:
    """The ``(flow node, instance)`` pairs a template match reaches from
    one pair, depth-first in pre-order with supplier edges in flow
    order, each checked once; None as soon as one fails its check.  A
    pair in ``matched`` passed with all it reaches in an earlier match,
    so the walk does not descend from it."""
    order: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    stack = [(node_id, instance_id)]
    while stack:
        pair = stack.pop()
        if pair in seen:
            continue
        seen.add(pair)
        order.append(pair)
        if pair in matched:
            continue
        suppliers = _supplier_pairs(db, flow, *pair)
        if suppliers is None:
            return None
        stack.extend(reversed(suppliers))
    return order


def _supplier_pairs(db: HistoryDatabase, flow: TaskGraph, node_id: str,
                    instance_id: str) -> list[tuple[str, str]] | None:
    """One pair's check — the instance has the node's type, is among
    its bindings if it has any, and its derivation record mirrors each
    supplier edge — and the supplier pairs it leads to (None if the
    check fails)."""
    node = flow.node(node_id)
    instance = db.get(instance_id)
    if not db.schema.is_subtype(instance.entity_type, node.entity_type):
        return None
    if node.bindings and instance_id not in node.bindings:
        return None
    record = instance.derivation
    pairs = []
    for edge in flow.suppliers(node_id):
        if record is None:
            return None
        supplier = (record.tool if edge.is_functional
                    else record.input_map().get(edge.role))
        if supplier is None:
            return None
        pairs.append((edge.supplier, supplier))
    return pairs


def count_instances(db: HistoryDatabase, entity_type: str | None = None
                    ) -> int:
    """Number of instances (optionally of one type, with subtypes)."""
    if entity_type is None:
        return len(db)
    return len(db.browse(entity_type))
