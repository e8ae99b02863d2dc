"""The shared DAG walks (:mod:`repro.dag`) against the walks they replaced.

``tests/dag_reference.py`` keeps the recursive, hand-written versions.
Hypothesis builds random task graphs (inserted sources-first,
goal-first or shuffled, with zero and tied weights), random ``connect``
scripts that try to close cycles, and random schemas; every order,
error, layer, wave, schedule, critical path, derivation depth,
statistics report, template-query answer and flow equation must match
the reference.  The depth probes show the walks no longer run out of
stack on deep chains, and the read- and check-count tests show that
``history_statistics`` no longer re-walks each instance's derivation
and the template queries no longer re-match each node's subtree.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import dag
from repro.core.lisp import flow_equation
from repro.core.render import layers
from repro.core.taskgraph import TaskGraph
from repro.errors import ObservabilityError, ReproError
from repro.execution.context import DesignEnvironment
from repro.execution.executor import _invocation_graph
from repro.execution.scheduler import (DurationModel, _critical_lengths,
                                       plan_schedule)
from repro.history import query
from repro.history.database import HistoryDatabase
from repro.history.instance import DerivationRecord
from repro.history.query import find_bindings, template_query
from repro.history.sqlite_store import SqliteHistoryStore
from repro.history.statistics import derivation_depth, history_statistics
from repro.history.synth import synth_schema, tick_clock
from repro.obs import (RUN_SPAN, TASK_SPAN, RingBufferSink, Span,
                       critical_path)
from repro.scenarios.generator import (MAIN_FLOW, ScenarioSpec,
                                       build_scenario_schema,
                                       materialize_scenario,
                                       scenario_nodes)
from repro.scenarios.synthetic import (SALT_MARKER,
                                       register_corpus_encapsulations)
from repro.schema.builder import SchemaBuilder
from tests import dag_reference as reference
from tests.index_reference import FlatTaskGraph

TOOLS = 3
ROLES = 3
#: Tool durations: zero, ties and binary fractions (exact float sums).
DURATIONS = (0.0, 0.5, 1.0, 2.0)
ORDERS = ("sources-first", "goal-first", "shuffled")


def outcome(call, *args, **kwargs):
    """A call's result, or its error's type and message."""
    try:
        return ("ok", call(*args, **kwargs))
    except ReproError as error:
        return (type(error), str(error))


def flow_schema():
    """Data types ``D0..D2`` (subtypes of ``D``), each made by its own
    salted tool from up to three optional inputs of any ``D``."""
    builder = SchemaBuilder("dag").data("D")
    for kind in range(TOOLS):
        builder.tool(f"K{kind}", description=f"{SALT_MARKER}{kind:08x}")
        builder.data(f"D{kind}", parent="D")
        builder.produced_by(f"D{kind}", f"K{kind}", inputs=[
            {"type": "D", "role": f"r{role}", "optional": True}
            for role in range(ROLES)])
    return builder.build()


SCHEMA = flow_schema()


# ---------------------------------------------------------------------------
# the helpers themselves
# ---------------------------------------------------------------------------
class TestHelpers:
    def test_topological_is_the_recursive_post_order(self):
        before = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": [],
                  "e": ["a"]}
        assert dag.topological("eabcd", before.__getitem__) == \
            ["d", "b", "c", "a", "e"]
        # nodes reached only through ``before`` are ordered too
        assert dag.topological("a", lambda n: before.get(n, "")) == \
            ["d", "b", "c", "a"]

    def test_cycle_error_carries_the_cycle(self):
        before = {"a": ["b"], "b": ["c"], "c": ["b"]}
        with pytest.raises(dag.CycleError) as caught:
            dag.topological("a", before.__getitem__)
        assert caught.value.path == ["b", "c", "b"]
        assert str(caught.value) == "dependency cycle: b -> c -> b"
        with pytest.raises(dag.CycleError, match="x -> x"):
            dag.topological("x", lambda n: "x")

    def test_longest_keeps_the_first_tie_and_drops_zero_chains(self):
        before = {"s": [], "z": [], "a": ["s"], "b": ["s"],
                  "t": ["z", "b", "a"], "u": ["z"]}
        weight = {"s": 1, "z": 0, "a": 2, "b": 2, "t": 1, "u": 3}
        chains = dag.longest("szabtu", before.__getitem__,
                             weight.__getitem__)
        assert chains == {"s": (1, None), "z": (0, None), "a": (3, "s"),
                          "b": (3, "s"), "t": (4, "b"), "u": (3, None)}

    def test_reachable_includes_the_start(self):
        step = {1: [2, 3], 2: [3], 3: [1], 4: [1]}
        assert dag.reachable(1, step.__getitem__) == {1, 2, 3}
        assert dag.reachable(4, step.__getitem__) == {1, 2, 3, 4}

    def test_dependencies_sorted_last_producer_wins(self):
        preds, succs = dag.dependencies(
            [("x",), ("y", "x"), ("z",)],
            [(), ("x", "q"), ("y", "x", "z")])
        # item 1 produces x last, so it is everyone's x supplier and
        # not its own predecessor; item 2 ignores its own output
        assert preds == [[], [], [1]]
        assert succs == [[], [2], []]


# ---------------------------------------------------------------------------
# random task graphs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FlowSpec:
    """A random DAG over ``D`` nodes: node ``i`` has type ``D{kinds[i]}``,
    its tool edge when ``tooled[i]`` and data edges to ``inputs[i]``
    (all earlier nodes); ``insertion`` orders the ``("tool", kind)`` and
    ``("data", i)`` keys as the graph is built."""

    kinds: tuple[int, ...]
    inputs: tuple[tuple[int, ...], ...]
    tooled: tuple[bool, ...]
    insertion: tuple[tuple[str, int], ...]
    durations: tuple[float, ...]  # per tool kind, then composition
    machines: int


@st.composite
def flow_specs(draw, max_nodes: int = 9,
               executable: bool = False) -> FlowSpec:
    count = draw(st.integers(1, max_nodes))
    kinds: list[int] = []
    inputs: list[tuple[int, ...]] = []
    tooled: list[bool] = []
    for index in range(count):
        twin = draw(st.none() | st.integers(0, index - 1)) \
            if index else None
        if twin is not None:
            # same type, tool and suppliers: the two coalesce (Fig. 5)
            kinds.append(kinds[twin])
            inputs.append(inputs[twin])
            tooled.append(tooled[twin])
            continue
        kinds.append(draw(st.integers(0, TOOLS - 1)))
        inputs.append(tuple(sorted(draw(st.sets(
            st.integers(0, index - 1), max_size=ROLES))))
                      if index else ())
        # a derived node of an executed flow needs its tool
        tooled.append(draw(st.booleans())
                      or (executable and bool(inputs[-1])))
    keys = [("tool", kind) for kind in sorted(
        {kinds[i] for i in range(count) if tooled[i]})]
    keys += [("data", index) for index in range(count)]
    order = draw(st.sampled_from(ORDERS))
    if order == "goal-first":
        keys.reverse()
    elif order == "shuffled":
        keys = draw(st.permutations(keys))
    durations = tuple(draw(st.sampled_from(DURATIONS))
                      for _ in range(TOOLS + 1))
    return FlowSpec(tuple(kinds), tuple(inputs), tuple(tooled),
                    tuple(keys), durations, draw(st.integers(1, 3)))


def build_flow(spec: FlowSpec, connect=TaskGraph.connect,
               graph_class=TaskGraph
               ) -> tuple[TaskGraph, dict[tuple[str, int], str]]:
    graph = graph_class(SCHEMA, "dag")
    ids = {}
    for key in spec.insertion:
        kind, index = key
        entity = f"K{index}" if kind == "tool" else \
            f"D{spec.kinds[index]}"
        ids[key] = graph.add_node(entity).node_id
    for key in spec.insertion:
        kind, index = key
        if kind == "tool":
            continue
        if spec.tooled[index]:
            connect(graph, ids[key], ids[("tool", spec.kinds[index])])
        for role, supplier in enumerate(spec.inputs[index]):
            connect(graph, ids[key], ids[("data", supplier)],
                    role=f"r{role}")
    return graph, ids


def duration_model(spec: FlowSpec) -> DurationModel:
    model = DurationModel()
    for kind in range(TOOLS):
        model.record(f"K{kind}", spec.durations[kind])
    model.record(None, spec.durations[TOOLS])
    return model


def task_spans(graph: TaskGraph, durations: DurationModel) -> list[Span]:
    """One task span per invocation, as the executor would emit them,
    timed by the duration model and started in invocation order."""
    spans = [Span("t", "run", None, "run:dag", RUN_SPAN, 0.0, 100.0)]
    for node in _invocation_graph(graph, durations):
        invocation = node.invocation
        spans.append(Span(
            "t", f"s{node.index}", "run", "task:" + ",".join(
                invocation.outputs), TASK_SPAN, float(node.index),
            float(node.index) + node.duration,
            attributes={"outputs": sorted(invocation.outputs),
                        "inputs": sorted(set(invocation.input_nodes))}))
    return spans


def assert_same_critical_path(spans: list[Span]) -> None:
    new, old = critical_path(spans), reference.critical_path(spans)
    assert new.critical_length == old.critical_length
    assert new.parallelism == old.parallelism
    assert new.busy_time == old.busy_time
    assert [t.slack for t in new.tasks] == [t.slack for t in old.tasks]
    if _chain_is_unique(old):
        assert [s.span_id for s in new.path] == \
            [s.span_id for s in old.path]
    # either way the path is a chain of the critical length
    assert sum(s.duration for s in new.path) == new.critical_length


def _chain_is_unique(report) -> bool:
    """No task on the reported chain has two equally heavy suppliers."""
    tasks = [t.span for t in report.tasks]
    producer = {node: span.span_id for span in tasks
                for node in span.value("outputs")}
    feeds = {span.span_id: {producer[node] for node in span.value("inputs")
                            if node in producer} - {span.span_id}
             for span in tasks}
    up = dict.fromkeys(feeds, 0.0)
    for _ in tasks:  # relax until every chain is counted
        for span in tasks:
            up[span.span_id] = span.duration + max(
                (up[f] for f in feeds[span.span_id]), default=0.0)
    for span in report.path:
        best = max((up[f] for f in feeds[span.span_id]), default=0.0)
        if best > 0 and sum(up[f] == best for f in feeds[span.span_id]) > 1:
            return False
    return True


class TestTaskGraphs:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(flow_specs())
    def test_walks_match_reference(self, spec):
        graph, _ = build_flow(spec)
        twin, _ = build_flow(spec, reference.connect, FlatTaskGraph)
        assert graph.to_dict() == twin.to_dict()
        order = graph.topological_order()
        assert order == reference.topological_order(graph)
        for node_id in graph.node_ids():
            assert graph.subtree(node_id) == \
                reference.subtree(graph, node_id)
            assert graph.dependents(node_id) == \
                reference.dependents(graph, node_id)
        assert layers(graph) == reference.layers(graph)

        durations = duration_model(spec)
        nodes = _invocation_graph(graph, durations)
        assert nodes == reference.invocation_graph(graph, durations)
        assert _critical_lengths(nodes) == \
            reference.critical_lengths(nodes)
        assert plan_schedule(graph, spec.machines, durations) == \
            reference.plan_schedule(graph, spec.machines, durations)
        assert_same_critical_path(task_spans(graph, durations))

        # a flow saved goal-first loads in the recursive walk's order
        payload = graph.to_dict()
        payload["nodes"].reverse()
        loaded = TaskGraph.from_dict(SCHEMA, payload)
        assert loaded.topological_order() == \
            reference.topological_order(loaded)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7), st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9),
                  st.sampled_from((None, "r0", "r1", "r2"))),
        max_size=24))
    def test_connect_scripts_match_reference(self, count, script):
        graphs = []
        for graph_class in (TaskGraph, FlatTaskGraph):
            graph = graph_class(SCHEMA, "script")
            for index in range(count):
                graph.add_node(f"D{index % TOOLS}")
            graph.add_node("K0")
            graphs.append(graph)
        new, old = graphs
        nodes = new.node_ids()
        for consumer, supplier, role in script:
            consumer = nodes[consumer % len(nodes)]
            supplier = nodes[supplier % len(nodes)]
            assert outcome(new.connect, consumer, supplier, role=role) \
                == outcome(reference.connect, old, consumer, supplier,
                           role=role)
        assert new.to_dict() == old.to_dict()
        assert new.topological_order() == reference.topological_order(old)


# ---------------------------------------------------------------------------
# executed flows: waves, derivation depths, statistics
# ---------------------------------------------------------------------------
def run_flow(spec: FlowSpec, target: int | None, runs: int):
    """Execute a random flow ``runs`` times (whole, or up to one target
    node); returns the environment, graph, targets and spans."""
    env = DesignEnvironment(SCHEMA, user="dag")
    register_corpus_encapsulations(env)
    graph, ids = build_flow(spec)
    for key, node_id in ids.items():
        node = graph.node(node_id)
        if key[0] == "tool":
            node.bind(env.install_tool(node.entity_type).instance_id)
        elif not graph.suppliers(node_id):
            node.bind(env.install_data(
                node.entity_type, {"leaf": key[1]}).instance_id)
    sink = RingBufferSink(4096)
    env.tracer.subscribe(sink)
    targets = None if target is None else \
        [graph.node_ids()[target % len(graph)]]
    for _ in range(runs):
        env.executor().execute(graph, targets=targets, force=True)
    return env, graph, targets, list(sink.events())


class TestExecutedFlows:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(flow_specs(max_nodes=7, executable=True),
           st.none() | st.integers(0, 20),
           st.integers(1, 2))
    def test_waves_depths_and_statistics_match_reference(
            self, spec, target, runs):
        env, graph, targets, spans = run_flow(spec, target, runs)
        waves = {tuple(s.value("outputs")): s.value("wave")
                 for s in spans if s.kind == TASK_SPAN}
        assert waves == reference.waves(graph, targets)
        for instance in env.db.instances():
            assert derivation_depth(env.db, instance.instance_id) == \
                reference.derivation_depth(env.db, instance.instance_id)
        new = history_statistics(env.db)
        old = reference.history_statistics(env.db)
        assert new.to_dict() == old.to_dict()
        assert new.render() == old.render()
        for trace_id in {s.trace_id for s in spans}:
            trace = [s for s in spans if s.trace_id == trace_id]
            new_path = critical_path(trace)
            old_path = reference.critical_path(trace)
            assert new_path.critical_length == old_path.critical_length
            assert [t.slack for t in new_path.tasks] == \
                [t.slack for t in old_path.tasks]


# ---------------------------------------------------------------------------
# template queries and flow equations over executed flows
# ---------------------------------------------------------------------------
def query_answers(module, db, graph, target):
    """Both template queries' answers, binding key order included."""
    return (module.template_query(db, graph, target),
            [list(binding.items())
             for binding in module.find_bindings(db, graph, target)])


#: Node 3 reads node 1 directly and through node 2, so after two runs
#: an instance of node 3 whose inputs mix the runs reaches node 1 (and
#: node 0) through two instances.
DIAMOND = FlowSpec(kinds=(0, 1, 2, 0), inputs=((), (0,), (0, 1), (1, 2)),
                   tooled=(True,) * 4,
                   insertion=(("tool", 0), ("tool", 1), ("tool", 2),
                              ("data", 0), ("data", 1), ("data", 2),
                              ("data", 3)),
                   durations=(0.0,) * 4, machines=1)


def mix_inputs(env, data, count: int, entity_type: str) -> None:
    """Record up to ``count`` instances of ``entity_type``, each a copy
    of a derivation of that type with every input redrawn among the
    instances of its type (earlier mixes included)."""
    derived = [i for i in env.db.browse(entity_type)
               if i.derivation is not None and i.derivation.inputs]
    for _ in range(count if derived else 0):
        model = data.draw(st.sampled_from(derived))
        inputs = {role: data.draw(st.sampled_from(
            [i.instance_id
             for i in env.db.browse(env.db.get(input_id).entity_type)]))
            for role, input_id in model.derivation.inputs}
        derived.append(env.db.record(
            model.entity_type, {"mixed": len(env.db)},
            DerivationRecord.make(model.derivation.tool, inputs,
                                  env.db.new_invocation_id())))


class TestTemplateQueries:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.just(DIAMOND) | flow_specs(max_nodes=7, executable=True),
           st.none() | st.integers(0, 20), st.integers(1, 2),
           st.integers(0, 3), st.data())
    def test_queries_and_equations_match_reference(
            self, spec, target, runs, mixed, data):
        """Random executed flows, some goals' inputs mixed across runs,
        each node's bindings kept, cleared or redrawn among the
        instances of its type, and a random goal (a derived node when
        there is one)."""
        env, graph, _, _ = run_flow(spec, target, runs)
        derived = [n for n in graph.node_ids() if graph.suppliers(n)]
        goal = data.draw(st.sampled_from(derived or graph.node_ids()))
        mix_inputs(env, data, mixed, graph.node(goal).entity_type)
        for node_id in graph.node_ids():
            node = graph.node(node_id)
            choice = data.draw(st.sampled_from(
                ("keep", "keep", "free", "bind")))
            ids = [i.instance_id for i in env.db.browse(node.entity_type)]
            if choice == "free":
                node.unbind()
            elif choice == "bind" and ids:
                node.bind(*data.draw(st.lists(
                    st.sampled_from(ids), min_size=1, max_size=2,
                    unique=True)))
        assert query_answers(query, env.db, graph, goal) == \
            query_answers(reference, env.db, graph, goal)
        for style in ("lisp", "call"):
            assert flow_equation(graph, goal, style) == \
                reference.flow_equation(graph, goal, style)

    def test_two_instances_of_one_node(self):
        """``x`` feeds the goal through ``a`` and through ``b``; the
        goal's ``a`` was made from ``x1`` and its ``b`` from ``x2``.
        Every path matches the template, so ``template_query`` accepts
        the goal, but no single binding of ``x`` covers both paths, so
        ``find_bindings`` rejects it."""
        env = DesignEnvironment(SCHEMA, user="dag")
        register_corpus_encapsulations(env)
        tools = [env.install_tool(f"K{kind}").instance_id
                 for kind in range(TOOLS)]
        x1, x2 = (env.install_data("D0", {"leaf": n}).instance_id
                  for n in (1, 2))

        def derive(kind, **inputs):
            return env.db.record(f"D{kind}", {"of": inputs},
                                 DerivationRecord.make(
                                     tools[kind], inputs,
                                     env.db.new_invocation_id()))

        made = derive(0, r0=derive(1, r0=x1).instance_id,
                      r1=derive(2, r0=x2).instance_id)
        graph = TaskGraph(SCHEMA, "diamond")
        goal, a, b, x = (graph.add_node(f"D{kind}").node_id
                         for kind in (0, 1, 2, 0))
        for consumer, kind, inputs in ((goal, 0, (a, b)), (a, 1, (x,)),
                                       (b, 2, (x,))):
            graph.connect(consumer, graph.add_node(f"K{kind}").node_id)
            for role, supplier in enumerate(inputs):
                graph.connect(consumer, supplier, role=f"r{role}")
        for module in (query, reference):
            assert module.template_query(env.db, graph, goal) == (made,)
            assert module.find_bindings(env.db, graph, goal) == ()
        graph.node(x).bind(x1)
        assert template_query(env.db, graph, goal) == ()


# ---------------------------------------------------------------------------
# random schemas: the mandatory-cycle check
# ---------------------------------------------------------------------------
@st.composite
def schemas(draw):
    count = draw(st.integers(1, 7))
    arcs = draw(st.lists(
        st.tuples(st.integers(0, count - 1), st.integers(0, count - 1),
                  st.booleans()),
        max_size=12, unique_by=lambda arc: arc[:2]))
    names = [f"T{index}" for index in range(count)]
    order = draw(st.sampled_from(ORDERS))
    if order == "goal-first":
        names.reverse()
    elif order == "shuffled":
        names = draw(st.permutations(names))
    builder = SchemaBuilder("cyclic")
    for name in names:
        builder.data(name)
    for source, target, optional in arcs:
        builder.needs(f"T{source}", f"T{target}", optional=optional,
                      role=f"to{target}")
    return builder.build(validate=False)


@settings(max_examples=300, deadline=None)
@given(schemas())
def test_schema_cycle_check_matches_reference(schema):
    assert outcome(schema._validate_acyclicity) == \
        outcome(reference.validate_acyclicity, schema)


def test_schema_cycle_message_names_the_cycle():
    schema = (SchemaBuilder("loop").data("A").data("B")
              .needs("A", "B", role="b").needs("B", "A", role="a")
              .build(validate=False))
    with pytest.raises(ReproError) as caught:
        schema.validate()
    assert str(caught.value) == (
        "mandatory dependency cycle (mark one arc optional to break "
        "it): A -> B -> A")


def test_cyclic_trace_keeps_its_error():
    spans = [Span("t", f"s{i}", None, f"task:{i}", TASK_SPAN, 0.0, 1.0,
                  attributes={"outputs": [out], "inputs": [into]})
             for i, (out, into) in enumerate((("a", "b"), ("b", "a")))]
    for analyze in (critical_path, reference.critical_path):
        assert outcome(analyze, spans) == (
            ObservabilityError,
            "task spans form a dependency cycle; trace is inconsistent")


# ---------------------------------------------------------------------------
# depth probes: chains deeper than the interpreter's recursion limit
# ---------------------------------------------------------------------------
def chain_spec(depth: int) -> ScenarioSpec:
    return ScenarioSpec("s01-chain", "chain", seed=1, width=2,
                        depth=depth, fanout=2)


def saved_chain_flow(spec: ScenarioSpec) -> dict:
    """The ``flows.json`` graph ``materialize_scenario`` saves for a
    chain scenario, written out directly rather than built edge by
    edge."""
    nodes = scenario_nodes(spec)
    ids = {node.entity_type: f"n{index}"
           for index, node in enumerate(nodes)}
    payload = {"name": MAIN_FLOW, "schema": spec.scenario_id,
               "nodes": [], "edges": []}
    for node in nodes:
        source = node.tool_type is None
        payload["nodes"].append(_saved_node(
            ids[node.entity_type], node.entity_type, not source,
            [f"{node.entity_type}#0001"] if source else []))
    for index, node in enumerate(n for n in nodes if n.tool_type):
        tool_id = f"n{len(nodes) + index}"
        payload["nodes"].append(_saved_node(
            tool_id, node.tool_type, False, [f"{node.tool_type}#0001"]))
        payload["edges"].append(_saved_edge(
            ids[node.entity_type], tool_id, "f", node.tool_type))
        for input_type in node.inputs:
            payload["edges"].append(_saved_edge(
                ids[node.entity_type], ids[input_type], "d", input_type))
    return payload


def _saved_node(node_id, entity_type, explicit, bindings):
    return {"id": node_id, "type": entity_type,
            "original_type": entity_type, "explicit": explicit,
            "bindings": bindings, "produced": [], "label": ""}


def _saved_edge(consumer, supplier, kind, role):
    return {"consumer": consumer, "supplier": supplier, "kind": kind,
            "role": role, "optional": False}


def test_saved_chain_flow_is_what_materialize_saves():
    spec = chain_spec(3)
    env = materialize_scenario(spec)
    assert saved_chain_flow(spec) == \
        env.flow_catalog.select(MAIN_FLOW).to_dict()


@pytest.mark.parametrize("order", ("sources-first", "goal-first"))
def test_connect_walk_steps_do_not_grow_with_the_chain(order, monkeypatch):
    """Each new edge's cycle check walks from both of its ends in turn
    and stops when either walk is used up, so an edge of a 1,000-stage
    chain costs the walk steps of an edge of a 10-stage chain, whether
    the chain is built sources-first (as ``materialize_scenario`` builds
    it) or goal-first."""
    steps: list[int] = []
    for name in ("_supplier_ids", "_consumer_ids"):
        def counted(self, node_id, original=getattr(TaskGraph, name)):
            steps[-1] += 1
            return original(self, node_id)
        monkeypatch.setattr(TaskGraph, name, counted)
    most = {}
    for depth in (10, 1_000):
        spec = chain_spec(depth)
        graph = TaskGraph(build_scenario_schema(spec), MAIN_FLOW)
        stages = []
        ids = {}
        for node in scenario_nodes(spec):
            ids[node.entity_type] = graph.add_node(node.entity_type).node_id
            if node.tool_type is not None:
                tool = graph.add_node(node.tool_type).node_id
                stages.append((node, tool))
        if order == "goal-first":
            stages.reverse()
        for node, tool in stages:
            consumer = ids[node.entity_type]
            steps.append(0)
            graph.connect(consumer, tool)
            for input_type in node.inputs:
                steps.append(0)
                graph.connect(consumer, ids[input_type], role=input_type)
        most[depth] = max(steps)
        steps.clear()
    assert most[10] == most[1_000] <= 2


def test_goal_first_saved_flow_of_1100_stages_loads():
    spec = chain_spec(1_100)
    payload = saved_chain_flow(spec)
    payload["nodes"].reverse()  # the order backward expansion leaves
    graph = TaskGraph.from_dict(build_scenario_schema(spec), payload)
    order = graph.topological_order()
    position = {node_id: index for index, node_id in enumerate(order)}
    assert len(order) == len(graph) == 2 * 1_100 + 1
    assert all(position[e.supplier] < position[e.consumer]
               for e in graph.edges())
    assert order[-1] == "n1100"  # the goal comes last


def test_goal_first_schema_of_1200_chained_types_validates():
    builder = SchemaBuilder("deep").tool("Step")
    for index in reversed(range(1_200)):
        builder.data(f"Type{index}")
    for index in reversed(range(1, 1_200)):
        builder.produced_by(f"Type{index}", "Step",
                            inputs=[f"Type{index - 1}"])
    schema = builder.build()
    assert len(schema.effective_dependencies("Type1199")) == 2


def executed_chain(depth: int):
    """A corpus chain of ``depth`` stages (width 1), run once: its
    history, flow and goal node."""
    spec = ScenarioSpec("s01-chain", "chain", seed=1, width=1,
                        depth=depth, fanout=2)
    env = materialize_scenario(spec)
    flow = env.flow_catalog.select(MAIN_FLOW).graph
    env.executor().execute(flow)
    return env.db, flow, f"n{depth}"


def test_template_queries_and_equations_of_a_1100_stage_chain():
    db, flow, goal = executed_chain(1_100)
    (made,) = db.browse("Stage1100")
    assert template_query(db, flow, goal) == (made,)
    (binding,) = find_bindings(db, flow, goal)
    assert binding[goal] == made.instance_id
    assert len(binding) == 2 * 1_100 + 1
    assert flow_equation(flow, goal, "lisp").startswith(
        "stage1100 <- (step1100, (step1099, ")
    assert flow_equation(flow, goal, "call").startswith(
        "stage1100 <- step1100(step1099(")


@pytest.fixture
def checked(monkeypatch) -> list[tuple[str, str]]:
    """Every (flow node, instance) pair a template query checks."""
    pairs: list[tuple[str, str]] = []
    check = query._supplier_pairs

    def counted(db, flow, node_id, instance_id):
        pairs.append((node_id, instance_id))
        return check(db, flow, node_id, instance_id)

    monkeypatch.setattr(query, "_supplier_pairs", counted)
    return pairs


def test_find_bindings_checks_each_reachable_pair_once(checked):
    """One check per (flow node, instance) pair a binding covers: the
    walk does not re-match the subtree below each node it reaches."""
    db, flow, goal = executed_chain(100)
    (binding,) = find_bindings(db, flow, goal)
    assert sorted(checked) == sorted(binding.items())
    assert len(checked) == 2 * 100 + 1


def test_template_query_checks_a_shared_subtree_once(checked):
    """Three more goal instances derived from the goal's own inputs
    share its whole subtree: the query checks the subtree's pairs once
    and then only each later candidate's own pair."""
    db, flow, goal = executed_chain(100)
    (made,) = db.browse("Stage100")
    copies = [db.record("Stage100", {"copy": n}, made.derivation)
              for n in range(3)]
    assert template_query(db, flow, goal) == (made, *copies)
    assert len(checked) == len(set(checked)) == 2 * 100 + 1 + 3


def derivation_chain(depth: int, store=None) -> HistoryDatabase:
    """A history whose newest instance is ``depth`` derivations deep."""
    db = HistoryDatabase(synth_schema(), store=store, clock=tick_clock())
    tool = db.install("SynthTool", {"tool": "synth"}).instance_id
    head = db.install("Alpha", {"n": 0}).instance_id
    role = "source"
    for index in range(depth):
        head = db.record("Beta", {"n": index + 1}, DerivationRecord.make(
            tool, {role: head}, db.new_invocation_id())).instance_id
        role = "x"
    return db


def test_statistics_of_a_1200_deep_derivation_chain():
    db = derivation_chain(1_200)
    stats = history_statistics(db)
    assert stats.max_depth == 1_200
    assert stats.mean_depth == sum(range(1, 1_201)) / 1_200
    head = db.instances()[-1].instance_id
    assert derivation_depth(db, head) == 1_200


@pytest.mark.parametrize("backend", ("json", "sqlite"))
def test_statistics_reads_do_not_grow_with_depth(backend, tmp_path):
    """Every depth comes out of one pass, so the instance reads per
    derived instance are the same at depth 100 and 1,000."""
    per_instance = []
    for depth in (100, 1_000):
        store = (SqliteHistoryStore(tmp_path / f"h{depth}.sqlite")
                 if backend == "sqlite" else None)
        db = derivation_chain(depth, store)
        reads = []
        get = db.store.get
        db.store.get = lambda instance_id: reads.append(1) or \
            get(instance_id)
        try:
            assert history_statistics(db).max_depth == depth
        finally:
            del db.store.get
            if store is not None:
                store.close()
        per_instance.append(len(reads) / depth)
    assert per_instance[0] == per_instance[1]
