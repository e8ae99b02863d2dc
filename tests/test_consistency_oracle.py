"""Staleness queries against the forward-closure oracle.

The library finds successor versions by walking the version tree;
``tests/consistency_reference.py`` keeps the original algorithm, which
walks every instance forward-reachable from a candidate.  The two must
agree exactly — ids, order and exemptions — on any history the program
can write:

* random histories over the Fig. 1, Fig. 2, odyssey and synthetic
  schemas, grown only through ``install`` and ``record`` (so every
  derivation is schema-checked), with timestamp ties and skipped
  optional roles;
* the same over a corpus scenario's schema, which has no editing task
  and so is answered from the schema alone, and Fig. 1 with reports,
  ``all_up_to_date`` included;
* the seeded synthetic histories on both storage backends.

Two structural guards ride along: a stale query reads the same number
of forward-index rows however long the history behind it grows, and a
hand-made lineage cycle raises instead of looping.  The schema's
versioned families must follow its mutations.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import HistoryError, UnknownInstanceError
from repro.history.consistency import (StaleInput, all_up_to_date,
                                       consistency_report, newest_version,
                                       stale_inputs, successor_versions)
from repro.history.database import HistoryDatabase
from repro.history.instance import DerivationRecord, EntityInstance
from repro.history.sqlite_store import SqliteHistoryStore
from repro.history.store import InMemoryHistoryStore
from repro.history.synth import SHAPES, build_history, synth_schema
from repro.history.trace import lineage
from repro.obs.profiling import QueryRecorder
from repro.scenarios import ScenarioSpec
from repro.scenarios.generator import build_scenario_schema
from repro.schema.builder import SchemaBuilder
from repro.schema.dependency import DepKind, Dependency
from repro.schema.entity import EntityKind, EntityType
from repro.schema.standard import fig1_schema, fig2_schema, odyssey_schema
from tests import consistency_reference as reference

#: the synthetic schema adds versions with several in-family inputs
#: (a Beta joining up to three Betas), which the standard schemas lack
SCHEMAS = (fig1_schema(), fig2_schema(), odyssey_schema(), synth_schema())


def reports_schema():
    """Fig. 1 plus an unversioned ``Report`` family and a derived tool.

    ``NetlistReport`` takes a netlist, a versioned family, and
    ``ReportDigest`` takes any report, so a ``NetlistReport`` can sit in
    its history; the tool ``Script`` is made from options.
    """
    schema = fig1_schema()
    data, tool = EntityKind.DATA, EntityKind.TOOL
    for name, kind, parent in (
            ("Reporter", tool, None), ("Script", tool, None),
            ("Report", data, None), ("StimuliReport", data, "Report"),
            ("NetlistReport", data, "Report"), ("ReportDigest", data, None),
            ("ScriptRun", data, None)):
        schema.add_entity(EntityType(name, kind, parent))
    for produced, maker, inputs in (
            ("StimuliReport", "Reporter",
             [("stimuli", "Stimuli", False), ("args", "SimArgs", True)]),
            ("NetlistReport", "Reporter", [("netlist", "Netlist", False)]),
            ("ReportDigest", "Reporter", [("report", "Report", False)]),
            ("Script", "Reporter", [("args", "SimArgs", False)]),
            ("ScriptRun", "Script",
             [("stimuli", "Stimuli", False),
              ("report", "StimuliReport", True)])):
        schema.add_dependency(Dependency(produced, maker,
                                         DepKind.FUNCTIONAL))
        for role, target, optional in inputs:
            schema.add_dependency(Dependency(produced, target, role=role,
                                             optional=optional))
    schema.validate()
    return schema


#: a corpus scenario's schema, with no editing task, and Fig. 1 with
#: reports
MORE_SCHEMAS = (
    build_scenario_schema(ScenarioSpec("s-diamond", "diamond", seed=5,
                                       width=2, depth=2, fanout=2)),
    reports_schema())


def reference_newest(db, instance_id):
    successors = reference.successor_versions(db, instance_id)
    return successors[-1] if successors else db.get(instance_id)


def reference_report(db):
    report = {}
    for instance in db.browse():
        if instance.derivation is None:
            continue
        reasons = reference.stale_inputs(db, instance.instance_id)
        if reasons:
            report[instance.instance_id] = reasons
    return report


def assert_agrees(db, instance_ids):
    """Every staleness query on ``instance_ids`` matches the oracle."""
    for instance_id in instance_ids:
        assert successor_versions(db, instance_id) == \
            reference.successor_versions(db, instance_id)
        assert newest_version(db, instance_id) == \
            reference_newest(db, instance_id)
        assert stale_inputs(db, instance_id) == \
            reference.stale_inputs(db, instance_id)


# ---------------------------------------------------------------------------
# random histories over the standard schemas
# ---------------------------------------------------------------------------

def _pick(draw, candidates):
    return candidates[draw(st.integers(0, len(candidates) - 1))]


@st.composite
def schema_histories(draw, schemas=SCHEMAS):
    """20-60 ``install``/``record`` steps over one of ``schemas``.

    A step installs a source data type or records a constructible type:
    its tool is an existing instance of the tool type (installed first
    when the tool type is a source and none exists), each role is
    filled from the existing instances of its target type, subtypes
    counting, and optional roles are sometimes left out.  The clock
    advances by 0 or 1 per step, so ``(timestamp, id)`` ties occur.
    """
    schema = draw(st.sampled_from(schemas))
    now = [1_000_000.0]
    db = HistoryDatabase(schema, clock=lambda: now[0])
    sources = [e.name for e in schema.data_entities()
               if schema.is_source(e.name)]
    methods = {name: schema.construction(name)
               for name in schema.entity_names()
               if schema.construction(name) is not None}
    made = {name: [] for name in schema.entity_names()}

    def ids_of(entity_type):
        return [instance_id
                for name in (entity_type,
                             *schema.descendants_of(entity_type))
                for instance_id in made[name]]

    def add(instance):
        made[instance.entity_type].append(instance.instance_id)
        return instance.instance_id

    def recordable(method):
        if method.tool is not None and not ids_of(method.tool) \
                and not schema.is_source(method.tool):
            return False
        return all(ids_of(dep.target) for dep in method.required_inputs)

    for step in range(draw(st.integers(20, 60))):
        now[0] += draw(st.integers(0, 1))
        options = [("install", name) for name in sources]
        options += [("record", name) for name, method in methods.items()
                    if recordable(method)]
        action, entity_type = _pick(draw, options)
        if action == "install":
            add(db.install(entity_type, {"step": step}))
            continue
        method = methods[entity_type]
        tool = None
        if method.tool is not None:
            tools = ids_of(method.tool)
            tool = (_pick(draw, tools) if tools else
                    add(db.install(method.tool, {"step": step})))
        inputs = {}
        for dep in method.inputs:
            candidates = ids_of(dep.target)
            if not candidates or (dep.optional and draw(st.booleans())):
                continue
            inputs[dep.role] = _pick(draw, candidates)
        add(db.record(entity_type, {"step": step},
                      DerivationRecord.make(tool, inputs,
                                            db.new_invocation_id())))
    return db


class TestSchemaHistories:
    @given(schema_histories())
    @settings(max_examples=75, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_query_matches_reference(self, db):
        assert_agrees(db, [i.instance_id for i in db.instances()])
        assert consistency_report(db) == reference_report(db)


# ---------------------------------------------------------------------------
# schemas without editing tasks
# ---------------------------------------------------------------------------

class TestEditFreeSchemas:
    def test_only_the_corpus_schema_is_edit_free(self):
        corpus, reports = MORE_SCHEMAS
        assert corpus.versioned_families() == frozenset()
        assert any(corpus.construction(name) is not None
                   for name in corpus.entity_names())
        for schema in (*SCHEMAS, reports):
            assert schema.versioned_families()

    @given(schema_histories(MORE_SCHEMAS))
    @settings(max_examples=75, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_query_matches_reference(self, db):
        ids = [i.instance_id for i in db.instances()]
        assert_agrees(db, ids)
        report = reference_report(db)
        assert consistency_report(db) == report
        for instance_id in ids:
            assert all_up_to_date(db, [instance_id]) == \
                (instance_id not in report)
        assert all_up_to_date(db, ids) == (not report)

    def test_unknown_ids_still_raise_without_edits(self):
        db = HistoryDatabase(MORE_SCHEMAS[0])
        with pytest.raises(UnknownInstanceError):
            stale_inputs(db, "Step1#0001")
        assert not all_up_to_date(db, ["Step1#0001"])

    def test_schema_changes_refresh_the_versioned_families(self):
        """An editing dependency added to an edit-free schema, then a new
        subtype inheriting a construction: an edit makes the instances
        derived from the old version stale."""
        schema = (SchemaBuilder("grows").tool("Tool").data("Doc")
                  .data("Report")
                  .produced_by("Report", "Tool", inputs=[("doc", "Doc")])
                  .build())
        db = HistoryDatabase(schema)
        tool = db.install("Tool", {}).instance_id
        doc = db.install("Doc", {"v": 1}).instance_id
        old = db.record("Report", {"r": 1}, DerivationRecord.make(
            tool, {"doc": doc})).instance_id
        assert stale_inputs(db, old) == ()
        assert schema.versioned_families() == frozenset()
        schema.add_dependency(Dependency("Doc", "Tool", DepKind.FUNCTIONAL))
        schema.add_dependency(Dependency("Doc", "Doc", role="previous",
                                         optional=True))
        assert schema.versioned_families() == {"Doc"}
        schema.add_entity(EntityType("Summary", parent="Report"))
        schema.validate()
        summary = db.record("Summary", {"s": 1}, DerivationRecord.make(
            tool, {"doc": doc})).instance_id
        edited = db.record("Doc", {"v": 2}, DerivationRecord.make(
            tool, {"previous": doc})).instance_id
        for instance_id in (old, summary):
            assert stale_inputs(db, instance_id) == (
                StaleInput(doc, edited),)
            assert stale_inputs(db, instance_id) == \
                reference.stale_inputs(db, instance_id)
        assert not all_up_to_date(db, [summary])
        assert stale_inputs(db, edited) == ()


# ---------------------------------------------------------------------------
# seeded synthetic histories on both backends
# ---------------------------------------------------------------------------

class TestSynthHistories:
    @pytest.mark.parametrize("edit_every", (1, 2, 4))
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("backend", ("json", "sqlite"))
    def test_handles_match_reference(self, backend, shape, edit_every,
                                     tmp_path):
        for seed in (0, 5):
            store = (SqliteHistoryStore(tmp_path / f"h{seed}.sqlite")
                     if backend == "sqlite" else None)
            handles = build_history(320, shape, seed=seed,
                                    edit_every=edit_every, store=store)
            try:
                assert handles.edited
                assert_agrees(handles.db, {*handles.heads,
                                           *handles.sources,
                                           *handles.edited})
            finally:
                if store is not None:
                    store.close()


# ---------------------------------------------------------------------------
# structural guards
# ---------------------------------------------------------------------------

def _consumer_lookups(recorder):
    """(count, rows) of the forward-index statement, summed."""
    entries = [e for e in recorder.snapshot().values()
               if "consumer" in e["statement"]]
    return (sum(e["count"] for e in entries),
            sum(e["rows"] for e in entries))


@pytest.mark.parametrize("backend", ("json", "sqlite"))
def test_stale_query_reads_do_not_grow_with_history(backend, tmp_path):
    """A head's staleness costs its segment, not the history.

    With ``edit_every=0`` the first segment is identical at both sizes,
    so its head's query must read the same forward-index rows whether
    1,000 or 8,000 instances were recorded after it.
    """
    reads = []
    for size in (1_000, 8_000):
        store = (SqliteHistoryStore(tmp_path / f"h{size}.sqlite")
                 if backend == "sqlite" else None)
        handles = build_history(size, "forkjoin", seed=3, edit_every=0,
                                store=store)
        recorder = QueryRecorder()
        handles.db.store.set_query_recorder(recorder)
        try:
            assert stale_inputs(handles.db, handles.heads[0]) == ()
            reads.append(_consumer_lookups(recorder))
        finally:
            handles.db.store.set_query_recorder(None)
            if store is not None:
                store.close()
    assert reads[0][0] > 0
    assert reads[0] == reads[1]


def test_lineage_cycle_raises_and_successor_walk_terminates():
    """Two versions naming each other as ``previous``.

    ``record`` cannot write this (antecedents must already exist), so
    the instances go straight into the store.
    """
    store = InMemoryHistoryStore()
    db = HistoryDatabase(synth_schema(), store=store)
    tool = db.install("SynthTool", {})
    for own, other in (("Alpha#0001", "Alpha#0002"),
                       ("Alpha#0002", "Alpha#0001")):
        store.add(EntityInstance(
            instance_id=own, entity_type="Alpha", user="", timestamp=1.0,
            derivation=DerivationRecord.make(tool.instance_id,
                                             {"previous": other})))
    with pytest.raises(HistoryError, match="contains a cycle"):
        lineage(db, "Alpha#0001")
    successors = successor_versions(db, "Alpha#0001")
    assert [s.instance_id for s in successors] == ["Alpha#0002"]
