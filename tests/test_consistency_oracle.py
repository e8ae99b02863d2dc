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
* the seeded synthetic histories on both storage backends.

Two structural guards ride along: a stale query reads the same number
of forward-index rows however long the history behind it grows, and a
hand-made lineage cycle raises instead of looping.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import HistoryError
from repro.history.consistency import (consistency_report, newest_version,
                                       stale_inputs, successor_versions)
from repro.history.database import HistoryDatabase
from repro.history.instance import DerivationRecord, EntityInstance
from repro.history.sqlite_store import SqliteHistoryStore
from repro.history.store import InMemoryHistoryStore
from repro.history.synth import SHAPES, build_history, synth_schema
from repro.history.trace import lineage
from repro.obs.profiling import QueryRecorder
from repro.schema.standard import fig1_schema, fig2_schema, odyssey_schema
from tests import consistency_reference as reference

#: the synthetic schema adds versions with several in-family inputs
#: (a Beta joining up to three Betas), which the standard schemas lack
SCHEMAS = (fig1_schema(), fig2_schema(), odyssey_schema(), synth_schema())


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
def schema_histories(draw):
    """20-60 ``install``/``record`` steps over one schema.

    A step installs a source data type or records a constructible type:
    its tool is an existing instance of the tool type (installed first
    when the tool type is a source and none exists), each role is
    filled from the existing instances of its target type, subtypes
    counting, and optional roles are sometimes left out.  The clock
    advances by 0 or 1 per step, so ``(timestamp, id)`` ties occur.
    """
    schema = draw(st.sampled_from(SCHEMAS))
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
