"""Design consistency maintenance (paper section 3.3).

*"Design consistency maintenance (i.e., automatic retracing of a flow to
update derived design data), is readily supported through the storage of
the design history.  Queries into the design history can quickly determine
whether such retracing need occur."*

Staleness is defined version-wise: a derived instance is **stale** when
some instance in its derivation history has a newer *successor version*
(a descendant through editing tasks within the same entity family).
Successors are found on the version tree alone.  Only a family the
schema gives an editing dependency (section 4.2) can have newer
versions, so every other instance is answered without reading the
forward index; in a versioned family the walk follows that index only
to consumers whose parent version is the current node.  A query
therefore costs the size of the derivation history and of the version
subtrees it touches, never the size of everything recorded downstream.
:func:`refresh_plan` turns a stale instance's backward trace into an
executable task graph with the stale inputs rebound to their newest
versions and every affected intermediate cleared for recomputation;
:func:`retrace` executes that plan through any object with an
``execute(flow)`` method (the :class:`repro.execution.executor.FlowExecutor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol

from ..core.taskgraph import TaskGraph
from ..dag import reachable
from ..errors import ConsistencyError
from ..schema.schema import TaskSchema
from .database import HistoryDatabase
from .instance import EntityInstance
from .trace import _parent_version, backward_trace, lineage


class FlowRunner(Protocol):
    """Anything that can execute a bound task graph (duck-typed to avoid
    a package cycle between history and execution)."""

    def execute(self, flow: TaskGraph) -> object: ...


def forward_closure(db: HistoryDatabase, instance_id: str) -> set[str]:
    """Ids reachable from an instance along the forward index.

    A forward-chaining primitive (section 4.2): walks
    ``db.consumers_of`` (a constant-time index lookup per edge on every
    backend) without materializing trace edges or pulling unrelated
    antecedents the way :func:`forward_trace` must for its richer DAG
    view.  Staleness does not use it: the closure of a tool or a source
    spans every run ever recorded from it, while successor versions
    lie on the much smaller version tree.
    """
    return reachable(instance_id, db.consumers_of)


def _versioned_families(schema: TaskSchema) -> frozenset[str]:
    """Root types of the families that editing tasks version (4.2)."""
    return frozenset(schema.root_of(t) for t in schema.editing_entities())


def _successors(db: HistoryDatabase, instance_id: str,
                versioned: frozenset[str], prune: tuple[str, ...] = ()
                ) -> list[EntityInstance]:
    """Version-tree descendants of an instance, oldest first.

    ``prune`` names instances left out together with their subtrees.
    """
    instance = db.get(instance_id)
    family = db.schema.root_of(instance.entity_type)
    if family not in versioned:
        return []
    seen = {instance_id, *prune}
    out = []
    frontier = [instance_id]
    while frontier:
        node = frontier.pop()
        for consumer_id in db.consumers_of(node):
            if consumer_id in seen:
                continue
            consumer = db.get(consumer_id)
            if (db.schema.is_subtype(consumer.entity_type, family)
                    and _parent_version(db, consumer, family) == node):
                seen.add(consumer_id)
                out.append(consumer)
                frontier.append(consumer_id)
    out.sort(key=lambda i: (i.timestamp, i.instance_id))
    return out


def successor_versions(db: HistoryDatabase, instance_id: str
                       ) -> tuple[EntityInstance, ...]:
    """Newer versions of an instance within its entity family.

    A successor is a forward-chained descendant whose version lineage
    passes through the given instance — i.e. it was reached by a chain of
    editing tasks starting from it.  The search walks down the version
    tree: from each node it keeps only the consumers whose parent
    version is that node, and a family without an editing dependency
    in the schema has no successors at all.
    """
    return tuple(_successors(db, instance_id,
                             _versioned_families(db.schema)))


def newest_version(db: HistoryDatabase, instance_id: str) -> EntityInstance:
    """The latest successor version (the instance itself if current)."""
    successors = successor_versions(db, instance_id)
    return successors[-1] if successors else db.get(instance_id)


@dataclass(frozen=True)
class StaleInput:
    """One reason an instance is out of date."""

    used: str        # instance id recorded in the derivation history
    newest: str      # its most recent successor version

    def __str__(self) -> str:
        return f"{self.used} superseded by {self.newest}"


def stale_inputs(db: HistoryDatabase, instance_id: str
                 ) -> tuple[StaleInput, ...]:
    """Instances in the derivation history that have newer versions.

    Ancestors in the instance's *own* version lineage are exempt: an
    edited netlist is not stale merely because it supersedes its own
    ``previous`` input — superseding it is the purpose of the edit.
    Successor versions whose lineage passes through the instance itself
    are likewise not counted against it.
    """
    return _stale_inputs(db, instance_id, _versioned_families(db.schema))


def _stale_inputs(db: HistoryDatabase, instance_id: str,
                  versioned: frozenset[str]) -> tuple[StaleInput, ...]:
    own_lineage = set(lineage(db, instance_id))
    trace = backward_trace(db, instance_id)
    members = trace.instances()
    in_trace = set(members)
    out = []
    for used_id in members:
        if used_id == instance_id or used_id in own_lineage:
            continue
        # pruning the instance drops the successors whose lineage passes
        # through it; a successor already inside the derivation means
        # the derivation passes through the newer version: not stale
        candidates = [
            s for s in _successors(db, used_id, versioned, (instance_id,))
            if s.instance_id not in in_trace]
        if candidates:
            out.append(StaleInput(used_id, candidates[-1].instance_id))
    return tuple(out)


def is_stale(db: HistoryDatabase, instance_id: str) -> bool:
    """True when the instance's derivation used superseded data."""
    return bool(stale_inputs(db, instance_id))


def is_up_to_date(db: HistoryDatabase, instance_id: str) -> bool:
    return not is_stale(db, instance_id)


def all_up_to_date(db: HistoryDatabase,
                   instance_ids: Iterable[str]) -> bool:
    """True when every instance exists and none is stale.

    The derivation cache's reuse gate: a remembered result may only be
    coalesced into a new execution while its entire derivation history is
    still current.  Unknown ids (e.g. an index restored against a
    different history) count as not up to date rather than raising.
    """
    versioned = _versioned_families(db.schema)
    for instance_id in instance_ids:
        if instance_id not in db or _stale_inputs(db, instance_id,
                                                  versioned):
            return False
    return True


def refresh_plan(db: HistoryDatabase, instance_id: str,
                 name: str = "retrace") -> TaskGraph:
    """Build the retrace flow for a stale instance.

    The backward trace becomes a task graph; every superseded instance is
    rebound to its newest version, and every node downstream of a change
    has its binding cleared so the executor recomputes it.  Raises
    :class:`ConsistencyError` if the instance is already up to date.
    """
    stale = {s.used: s.newest for s in stale_inputs(db, instance_id)}
    if not stale:
        raise ConsistencyError(
            f"{instance_id!r} is up to date; nothing to retrace")
    trace = backward_trace(db, instance_id)
    graph = trace.to_task_graph(name)
    dirty: set[str] = set()
    for node_id in graph.topological_order():
        node = graph.node(node_id)
        bound = node.bindings[0] if node.bindings else None
        suppliers_dirty = any(e.supplier in dirty
                              for e in graph.suppliers(node_id))
        if bound is not None and bound in stale:
            node.bind(stale[bound])
            dirty.add(node_id)
        elif suppliers_dirty:
            node.unbind()
            dirty.add(node_id)
    if not dirty:
        raise ConsistencyError(
            f"stale inputs of {instance_id!r} do not appear in its "
            "retrace flow")
    return graph


def retrace(db: HistoryDatabase, instance_id: str, runner: FlowRunner,
            name: str = "retrace"):
    """Execute the refresh plan; return the runner's execution report."""
    plan = refresh_plan(db, instance_id, name)
    return runner.execute(plan)


def consistency_report(db: HistoryDatabase, entity_type: str | None = None
                       ) -> dict[str, tuple[StaleInput, ...]]:
    """Map every stale instance (optionally of one type) to its reasons."""
    versioned = _versioned_families(db.schema)
    report: dict[str, tuple[StaleInput, ...]] = {}
    for instance in db.browse(entity_type):
        if instance.derivation is None:
            continue
        reasons = _stale_inputs(db, instance.instance_id, versioned)
        if reasons:
            report[instance.instance_id] = reasons
    return report
