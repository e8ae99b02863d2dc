"""The per-node indexes against the flat scans they replaced.

``tests/index_reference.py`` keeps the scans.  Hypothesis drives random
scripts through an indexed task graph and a flat one side by side
(``connect``, ``disconnect``, ``remove_node``, ``copy`` and a
``to_dict`` -> ``from_dict`` round trip), random ``add_entity`` /
``add_dependency`` sequences interleaved with lookups through an
indexed schema and a flat one, and the rendering of random traces of
generated histories; every answer, order, error and line must be the
same.  One ``execute()`` sorts its flow once.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import taskgraph
from repro.core.taskgraph import TaskGraph
from repro.errors import ReproError
from repro.execution.executor import FlowExecutor
from repro.history.synth import SHAPES, build_history
from repro.history.trace import FlowTrace, backward_trace, full_trace
from repro.scenarios import (MAIN_FLOW, CorpusSpec, generate_corpus,
                             history_signature, materialize_scenario,
                             spec_from_entry)
from repro.scenarios.generator import signature_digest
from repro.schema.dependency import DepKind, Dependency
from repro.schema.entity import EntityKind, EntityType
from repro.schema.schema import TaskSchema
from tests.index_reference import (FlatTaskGraph, FlatTaskSchema,
                                   trace_render)
from tests.test_dag import SCHEMA, outcome

# ---------------------------------------------------------------------------
# task graphs
# ---------------------------------------------------------------------------
#: the abstract ``D`` has no construction, so connecting to it fails
NODE_TYPES = ("D", "D0", "D1", "D2", "K0", "K1", "K2")
ROLES = (None, "r0", "r1", "r2")
PICK = st.integers(0, 31)

graph_steps = st.one_of(  # connect twice as often as the rest
    st.tuples(st.just("add"), st.sampled_from(NODE_TYPES)),
    st.tuples(st.just("connect"), PICK, PICK, st.sampled_from(ROLES)),
    st.tuples(st.just("connect"), PICK, PICK, st.sampled_from(ROLES)),
    st.tuples(st.just("disconnect"), PICK, PICK, st.sampled_from(ROLES)),
    # one of the graph's own edges, by role or with every role
    st.tuples(st.just("cut"), PICK, st.booleans()),
    st.tuples(st.just("remove"), PICK),
    st.tuples(st.just("copy")),
    st.tuples(st.just("roundtrip")),
)


def apply_step(graph: TaskGraph, step: tuple) -> TaskGraph:
    """Apply one script step; return the graph to carry on with."""
    op, *args = step
    nodes = graph.node_ids()
    edges = graph.edges()
    if op == "add":
        graph.add_node(args[0])
    elif op == "connect" and nodes:
        graph.connect(nodes[args[0] % len(nodes)],
                      nodes[args[1] % len(nodes)], role=args[2])
    elif op == "disconnect" and nodes:
        graph.disconnect(nodes[args[0] % len(nodes)],
                         nodes[args[1] % len(nodes)], role=args[2])
    elif op == "cut" and edges:
        edge = edges[args[0] % len(edges)]
        graph.disconnect(edge.consumer, edge.supplier,
                         edge.role if args[1] else None)
    elif op == "remove" and nodes:
        graph.remove_node(nodes[args[0] % len(nodes)])
    elif op == "copy":
        return graph.copy()
    elif op == "roundtrip":
        return type(graph).from_dict(graph.schema, graph.to_dict())
    return graph


def assert_same_graph(new: TaskGraph, old: FlatTaskGraph) -> None:
    assert type(new) is TaskGraph and type(old) is FlatTaskGraph
    assert new.node_ids() == old.node_ids()
    assert new.edges() == old.edges()
    for node_id in (*new.node_ids(), "gone"):
        assert new.suppliers(node_id) == old.suppliers(node_id)
        assert new.consumers(node_id) == old.consumers(node_id)
        assert new.functional_supplier(node_id) == \
            old.functional_supplier(node_id)
        # role order reaches payloads: compare the items in order
        assert list(new.data_suppliers(node_id).items()) == \
            list(old.data_suppliers(node_id).items())
        assert new._connected_roles(node_id) == \
            old._connected_roles(node_id)
    assert outcome(new.topological_order) == \
        outcome(old.topological_order)
    assert outcome(new.invocations) == outcome(old.invocations)
    assert outcome(new.validate) == outcome(old.validate)
    assert [n.node_id for n in new.leaves()] == \
        [n.node_id for n in old.leaves()]
    assert [n.node_id for n in new.goals()] == \
        [n.node_id for n in old.goals()]


class TestTaskGraphIndex:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.sampled_from(NODE_TYPES), min_size=1, max_size=8),
           st.lists(graph_steps, max_size=40))
    def test_scripts_match_flat_scans(self, types, script):
        new, old = TaskGraph(SCHEMA, "s"), FlatTaskGraph(SCHEMA, "s")
        for entity_type in types:
            new.add_node(entity_type)
            old.add_node(entity_type)
        for step in script:
            results = []
            for graph in (new, old):
                try:
                    results.append(("ok", apply_step(graph, step)))
                except ReproError as error:
                    results.append((type(error), str(error)))
            (status, result), (old_status, old_result) = results
            assert status == old_status
            if status == "ok":
                new, old = result, old_result
            else:
                assert result == old_result  # the same message
            assert_same_graph(new, old)

    def test_index_follows_edge_insertion_order(self):
        graph = TaskGraph(SCHEMA, "order")
        for entity_type in ("D0", "K0", "D1", "D2", "D1"):
            graph.add_node(entity_type)
        graph.connect("n0", "n4", role="r2")
        graph.connect("n0", "n1")
        graph.connect("n0", "n2", role="r0")
        graph.connect("n0", "n3", role="r1")
        assert list(graph.data_suppliers("n0")) == ["r2", "r0", "r1"]
        graph.disconnect("n0", "n4")
        graph.connect("n0", "n4", role="r2")
        assert list(graph.data_suppliers("n0")) == ["r0", "r1", "r2"]
        assert [e.supplier for e in graph.suppliers("n0")] == \
            ["n1", "n2", "n3", "n4"]
        graph.remove_node("n2")
        assert graph.consumers("n2") == ()
        assert [e.supplier for e in graph.copy().suppliers("n0")] == \
            ["n1", "n3", "n4"]


# ---------------------------------------------------------------------------
# schemas
# ---------------------------------------------------------------------------
NAMES = tuple(f"E{index}" for index in range(8))
NAME = st.integers(0, len(NAMES) - 1)

schema_steps = st.one_of(  # roots and dependencies twice as often
    st.tuples(st.just("entity"), NAME, st.booleans(),
              st.one_of(st.none(), NAME), st.booleans()),
    st.tuples(st.just("entity"), NAME, st.booleans(), st.none(),
              st.booleans()),
    st.tuples(st.just("dep"), NAME, NAME, st.booleans(),
              st.integers(0, 2), st.booleans()),
    st.tuples(st.just("dep"), NAME, NAME, st.booleans(),
              st.integers(0, 2), st.booleans()),
    st.tuples(st.just("lookup"), NAME),
)


def apply_schema_step(schema: TaskSchema, step: tuple):
    op, *args = step
    if op == "entity":
        name, is_tool, parent, composed = args
        return schema.add_entity(EntityType(
            NAMES[name], EntityKind.TOOL if is_tool else EntityKind.DATA,
            parent=None if parent is None else NAMES[parent],
            composed=composed and not is_tool))
    if op == "dep":
        source, target, functional, role, optional = args
        return schema.add_dependency(Dependency(
            NAMES[source], NAMES[target],
            DepKind.FUNCTIONAL if functional else DepKind.DATA,
            optional=optional and not functional,
            role=f"r{role}" if not functional else ""))
    return lookups(schema, NAMES[args[0]])


def lookups(schema: TaskSchema, name: str) -> tuple:
    return tuple(outcome(query, name) for query in (
        schema.own_dependencies, schema.effective_dependencies,
        schema.construction, schema.functional_dependency,
        schema.data_dependencies))


class TestSchemaIndex:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(schema_steps, max_size=40))
    def test_scripts_match_flat_scans(self, script):
        new, old = TaskSchema("s"), FlatTaskSchema("s")
        for step in script:
            assert outcome(apply_schema_step, new, step) == \
                outcome(apply_schema_step, old, step)
        for name in NAMES:
            assert lookups(new, name) == lookups(old, name)
        assert outcome(new.validate) == outcome(old.validate)

    def test_mutators_clear_the_memo(self):
        schema = TaskSchema("memo")
        schema.add_entity(EntityType("Tool", EntityKind.TOOL))
        schema.add_entity(EntityType("Base"))
        schema.add_entity(EntityType("Sub", parent="Base"))
        schema.add_dependency(Dependency("Base", "Tool", DepKind.FUNCTIONAL))
        assert [d.source for d in schema.effective_dependencies("Sub")] \
            == ["Base"]
        schema.add_dependency(Dependency("Sub", "Tool", DepKind.FUNCTIONAL))
        assert [d.source for d in schema.effective_dependencies("Sub")] \
            == ["Sub"]
        # a type whose parent is not declared yet raises and caches
        # nothing; declaring the parent answers
        schema.add_entity(EntityType("Orphan", parent="Later"))
        with pytest.raises(ReproError):
            schema.effective_dependencies("Orphan")
        schema.add_entity(EntityType("Later", parent="Base"))
        assert [d.source for d in schema.effective_dependencies("Orphan")] \
            == ["Base"]


# ---------------------------------------------------------------------------
# flow traces
# ---------------------------------------------------------------------------
class TestFlowTraceRender:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(3, 60), st.sampled_from(SHAPES), st.integers(0, 9),
           st.integers(0, 3), st.lists(st.integers(0, 10_000),
                                       min_size=1, max_size=30))
    def test_render_matches_flat_scans(self, size, shape, seed,
                                       edit_every, picks):
        db = build_history(size, shape, seed=seed,
                           edit_every=edit_every).db
        ids = [i.instance_id for i in db.store.iter_instances()]
        chosen = [ids[pick % len(ids)] for pick in picks]
        # repeated and overlapping derivations add known edges again
        handmade = FlowTrace(db)
        for instance_id in chosen:
            handmade.add_derivation_edges(instance_id)
        for trace in (handmade, backward_trace(db, chosen[0]),
                      full_trace(db, chosen[-1])):
            assert trace.render() == trace_render(trace)


# ---------------------------------------------------------------------------
# one validation and one sort per execute()
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("preset", ["executor", "scheduled_executor"])
def test_execute_sorts_the_flow_once(preset, monkeypatch):
    manifest = generate_corpus(CorpusSpec(seed=2, width=2, depth=3))
    sorts = []
    topological = taskgraph.topological

    def counting(*args, **kwargs):
        sorts.append(args)
        return topological(*args, **kwargs)

    plan = FlowExecutor._plan

    def sorting_again(self, graph, order, *args):
        return plan(self, graph, graph.topological_order(), *args)

    def run(entry, patches):
        env = materialize_scenario(spec_from_entry(entry))
        flow = env.plan_flow(MAIN_FLOW)
        for owner, name, value in patches:
            monkeypatch.setattr(owner, name, value)
        report = getattr(env, preset)().execute(flow)
        monkeypatch.undo()
        assert report.runs == entry["expected"]["runs"]
        assert signature_digest(history_signature(env)) == \
            entry["expected"]["history_digest"]
        return [(i.instance_id, i.derivation and i.derivation.invocation)
                for i in env.db.store.iter_instances()]

    for entry in manifest["scenarios"]:
        del sorts[:]
        records = run(entry, [(taskgraph, "topological", counting)])
        assert len(sorts) == 1, entry["scenario_id"]
        if preset == "executor":  # the scheduled lanes race for ids
            # the same ids as a plan that sorts again, as execute()
            # used to
            assert records == run(entry, [(FlowExecutor, "_plan",
                                           sorting_again)])
