"""Property-based tests (hypothesis) for core invariants.

Covers: codec round-trips, netlist/layout round-trips, flow-operation
closure (random expand/specialize/unexpand sequences never leave the set
of schema-valid DAGs), backward/forward trace duality, version lineage
consistency, and switch-level simulation vs. boolean evaluation for both
implementations (standard cells and PLA).
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.history.database import HistoryDatabase
from repro.history.datastore import CodecRegistry, DataStore
from repro.history.instance import DerivationRecord
from repro.history.trace import backward_trace, forward_trace, lineage
from repro.schema import standard as S
from repro.schema.standard import odyssey_schema
from repro.tools import (Layout, Netlist, extract, pla_layout,
                         standard_library, stdcell_layout, tech_map,
                         truth_table)
from repro.tools.logic import LogicSpec

SCHEMA = odyssey_schema()
LIBRARY = standard_library()

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12)

net_names = st.sampled_from(["a", "b", "c", "w0", "w1", "y", "z"])


@st.composite
def netlists(draw) -> Netlist:
    n = Netlist(draw(st.sampled_from(["n1", "n2"])),
                inputs=("a", "b"), outputs=("y",))
    count = draw(st.integers(1, 6))
    for index in range(count):
        kind = draw(st.sampled_from(["nmos", "pmos"]))
        n.add(f"m{index}", kind,
              gate=draw(net_names),
              source=draw(st.sampled_from(["GND", "VDD", "w0", "w1"])),
              drain=draw(net_names.filter(lambda x: x not in ("a", "b"))),
              width=draw(st.floats(0.5, 8.0, allow_nan=False)))
    return n


@st.composite
def layouts(draw) -> Layout:
    layout = Layout("lay")
    count = draw(st.integers(0, 5))
    for index in range(count):
        layout.place(f"u{index}",
                     draw(st.sampled_from(["inv", "nand2", "nor2"])),
                     draw(st.integers(0, 30)) * 5,
                     draw(st.integers(0, 30)) * 7)
    for index in range(draw(st.integers(0, 3))):
        points = draw(st.lists(
            st.tuples(st.integers(-5, 40), st.integers(-5, 40)),
            min_size=1, max_size=4))
        layout.route(f"net{index}", points)
    return layout


@st.composite
def logic_specs(draw) -> LogicSpec:
    """Random 2-3 input, 1-2 output boolean functions."""
    inputs = draw(st.sampled_from([("a", "b"), ("a", "b", "c")]))

    def expr(depth: int):
        if depth == 0:
            return ["var", draw(st.sampled_from(inputs))]
        op = draw(st.sampled_from(["and", "or", "not", "var"]))
        if op == "var":
            return ["var", draw(st.sampled_from(inputs))]
        if op == "not":
            return ["not", expr(depth - 1)]
        return [op, expr(depth - 1), expr(depth - 1)]

    outputs = draw(st.integers(1, 2))
    equations = tuple(
        (f"y{k}", expr(draw(st.integers(1, 3)))) for k in range(outputs))
    return LogicSpec("rand", inputs, equations)


# ---------------------------------------------------------------------------
# codec / persistence round-trips
# ---------------------------------------------------------------------------

@given(json_values)
@settings(max_examples=60)
def test_codec_roundtrip_json_values(value):
    registry = CodecRegistry()
    encoded = registry.encode(value)
    json.dumps(encoded)  # must be JSON-safe
    assert registry.decode(encoded) == value


@given(netlists())
@settings(max_examples=40)
def test_netlist_dict_roundtrip(netlist):
    assert Netlist.from_dict(netlist.to_dict()) == netlist


@given(netlists())
@settings(max_examples=40)
def test_datastore_content_addressing(netlist):
    store = DataStore()
    ref1 = store.put(netlist)
    ref2 = store.put(Netlist.from_dict(netlist.to_dict()))
    assert ref1 == ref2
    assert store.get(ref1) == netlist


@given(layouts())
@settings(max_examples=40)
def test_layout_dict_roundtrip(layout):
    assert Layout.from_dict(layout.to_dict()) == layout


# ---------------------------------------------------------------------------
# flow operations stay inside the schema-valid DAG space
# ---------------------------------------------------------------------------

@st.composite
def flow_scripts(draw):
    """A random sequence of (op, index) build operations."""
    return draw(st.lists(
        st.tuples(st.sampled_from(["place", "expand", "specialize",
                                   "unexpand", "forward", "disconnect",
                                   "generalize"]),
                  st.integers(0, 7)),
        min_size=1, max_size=14))


PLACEABLE = [S.PERFORMANCE, S.NETLIST, S.VERIFICATION, S.CIRCUIT,
             S.EDITED_LAYOUT, S.PERFORMANCE_PLOT, S.SIMULATOR,
             S.EXTRACTION_STATISTICS]


@given(flow_scripts())
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_random_build_sequences_keep_flow_valid(script):
    from repro.core.flow import DynamicFlow
    from repro.errors import ReproError

    flow = DynamicFlow(SCHEMA, "random")
    for op, index in script:
        nodes = flow.nodes()
        try:
            if op == "place":
                flow.place(PLACEABLE[index % len(PLACEABLE)])
            elif op == "expand" and nodes:
                flow.expand(nodes[index % len(nodes)])
            elif op == "specialize" and nodes:
                node = nodes[index % len(nodes)]
                choices = flow.specialization_choices(node)
                if choices:
                    flow.specialize(node, choices[index % len(choices)])
            elif op == "unexpand" and nodes:
                flow.unexpand(nodes[index % len(nodes)])
            elif op == "forward" and nodes:
                node = nodes[index % len(nodes)]
                choices = flow.forward_choices(node)
                if choices:
                    flow.expand_toward(node,
                                       choices[index % len(choices)])
            elif op == "disconnect" and flow.graph.edges():
                edges = flow.graph.edges()
                edge = edges[index % len(edges)]
                flow.graph.disconnect(edge.consumer, edge.supplier,
                                      edge.role)
            elif op == "generalize" and nodes:
                flow.generalize(nodes[index % len(nodes)])
        except ReproError:
            pass  # rejected operations must leave the flow untouched
        flow.validate()  # the invariant: never a broken flow
    # the graph is a DAG: topological order covers every node
    assert len(flow.graph.topological_order()) == len(flow.nodes())


# ---------------------------------------------------------------------------
# history: trace duality and lineage
# ---------------------------------------------------------------------------

@st.composite
def edit_histories(draw):
    """A random branching edit history over EditedNetlist."""
    db = HistoryDatabase(SCHEMA)
    editor = db.install(S.CIRCUIT_EDITOR, {}, name="ed")
    versions = [db.install(S.EDITED_NETLIST, {"v": 0}, name="c0")]
    count = draw(st.integers(1, 8))
    for index in range(count):
        parent = versions[draw(st.integers(0, len(versions) - 1))]
        versions.append(db.record(
            S.EDITED_NETLIST, {"v": index + 1},
            DerivationRecord.make(editor.instance_id,
                                  {"previous": parent.instance_id}),
            name=f"c{index + 1}"))
    return db, versions


@given(edit_histories())
@settings(max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
def test_backward_forward_duality(history):
    db, versions = history
    for a in versions:
        forward = set(forward_trace(db, a.instance_id).instances())
        for b in versions:
            backward = set(backward_trace(db, b.instance_id).instances())
            # b depends on a  <=>  a reaches b
            assert ((a.instance_id in backward)
                    == (b.instance_id in forward)) \
                or a.instance_id == b.instance_id


@given(edit_histories())
@settings(max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
def test_lineage_follows_recorded_parents(history):
    db, versions = history
    for version in versions:
        chain = lineage(db, version.instance_id)
        assert chain[-1] == version.instance_id
        assert chain[0] == versions[0].instance_id  # single root
        # consecutive entries are parent links
        for parent, child in zip(chain, chain[1:]):
            record = db.get(child).derivation
            assert record.input_map()["previous"] == parent


@given(edit_histories())
@settings(max_examples=30,
          suppress_health_check=[HealthCheck.too_slow])
def test_version_tree_projection_matches_derivations(history):
    db, versions = history
    trace = forward_trace(db, versions[0].instance_id)
    for node in trace.version_tree(S.NETLIST):
        record = db.get(node.instance_id).derivation
        if record is None:
            assert node.parent_id is None
        else:
            assert node.parent_id == record.input_map()["previous"]


# ---------------------------------------------------------------------------
# simulation matches boolean semantics for both implementations
# ---------------------------------------------------------------------------

@given(logic_specs())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_stdcell_implementation_matches_logic(spec):
    gates = tech_map(spec)
    expected = {bits: tuple(str(v) for v in values)
                for bits, values in spec.truth_table()}
    assert truth_table(gates, LIBRARY) == expected


@given(logic_specs())
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_pla_equals_stdcell_after_extraction(spec):
    expected = {bits: tuple(str(v) for v in values)
                for bits, values in spec.truth_table()}
    std_net, _ = extract(stdcell_layout(spec, LIBRARY), LIBRARY)
    pla_net, _ = extract(pla_layout(spec, LIBRARY), LIBRARY)
    assert truth_table(std_net) == expected
    assert truth_table(pla_net) == expected


@given(logic_specs(), st.integers(0, 9))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_compiled_equals_interpreted_simulator(spec, seed):
    """Differential test: the compiled engine matches the interpreter."""
    from repro.tools import compile_netlist, default_models, random_vectors
    from repro.tools.simulator import simulate_interpreted

    netlist = tech_map(spec).flatten(LIBRARY)
    stimuli = random_vectors(netlist.inputs, 12, seed=seed)
    models = default_models()
    fast = compile_netlist(netlist).simulate(stimuli, models)
    slow = simulate_interpreted(netlist, stimuli, models)
    assert fast.waveform_map() == slow.waveform_map()
    assert fast.settle_steps == slow.settle_steps
    assert fast.transitions == slow.transitions


@given(netlists(), st.randoms())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_verifier_invariant_under_renaming_and_reordering(netlist, rng):
    """LVS must match a netlist against a scrambled copy of itself."""
    from repro.tools import verify

    payload = netlist.to_dict()
    # rename internal nets consistently
    internal = [n for n in netlist.nets()
                if n not in ("VDD", "GND", *netlist.inputs,
                             *netlist.outputs)]
    mapping = {old: f"zz{i}" for i, old in enumerate(internal)}
    for t in payload["transistors"]:
        for key in ("gate", "source", "drain"):
            t[key] = mapping.get(t[key], t[key])
    # rename and reorder devices
    rng.shuffle(payload["transistors"])
    for i, t in enumerate(payload["transistors"]):
        t["name"] = f"dev{i}"
    scrambled = Netlist.from_dict(payload)
    result = verify(netlist, scrambled)
    assert result.matched, result.reasons


@given(st.integers(0, 2**30))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_placer_routing_preserves_function_any_seed(seed):
    """Place+route with any seed keeps the circuit's function."""
    from repro.tools import place, route_layout, verify
    from repro.tools import extract as extract_fn

    spec = LogicSpec.from_equations("m", "y = (a & b) | ~c")
    gates = tech_map(spec)
    layout = place(gates, {"seed": seed, "moves": 60}, LIBRARY)
    routed, _ = route_layout(layout, LIBRARY)
    from repro.tools import check_design_rules

    assert check_design_rules(routed, LIBRARY).clean
    netlist, _ = extract_fn(routed, LIBRARY)
    assert verify(gates, netlist, library=LIBRARY).matched


@given(logic_specs())
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_simplify_preserves_function(spec):
    """simplify() never changes the boolean function."""
    from repro.tools.logic import (LogicSpec as LS, operator_count,
                                   simplify)

    simplified = LS(spec.name, spec.inputs,
                    tuple((o, simplify(e)) for o, e in spec.equations))
    assert simplified.truth_table() == spec.truth_table()
    for (_, before), (_, after) in zip(spec.equations,
                                       simplified.equations):
        assert operator_count(after) <= operator_count(before)


@given(netlists())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_spice_roundtrip_random_netlists(netlist):
    """to_spice/from_spice round-trips arbitrary flat netlists."""
    from repro.tools import from_spice, to_spice

    deck = to_spice(netlist, LIBRARY)
    assert from_spice(deck, LIBRARY) == netlist
