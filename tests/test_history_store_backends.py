"""Cross-backend equivalence of the history storage layer.

The storage interface contract: the JSON/dict backend and the indexed
SQLite backend are *interchangeable* — every derivation query
(backward/forward chaining, staleness) answers identically on both,
and ``repro migrate`` converts a directory between them without
changing a single query result.  The property tests drive both
backends through randomly generated histories; the migration tests
round-trip a real fig10-style design history byte-for-byte; the
interface tests pin the blob and alias tables both stores keep.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import HistoryError
from repro.history.consistency import (forward_closure, stale_inputs,
                                       successor_versions)
from repro.history.database import HistoryDatabase, read_history_json
from repro.history.instance import EntityInstance
from repro.history.sqlite_store import SqliteHistoryStore
from repro.history.store import (BACKEND_JSON, BACKEND_SQLITE,
                                 InMemoryHistoryStore)
from repro.history.synth import SHAPES, build_history, synth_schema
from repro.history.trace import backward_trace, forward_trace
from repro.obs.profiling import QueryRecorder, statement_fingerprint
from repro.persistence import (FLOWS_FILE, HISTORY_FILE,
                               HISTORY_SQLITE_FILE, META_FILE,
                               SCHEMA_FILE, load_environment,
                               migrate_environment, save_environment)
from repro.schema import standard as S
from repro.tools import register_standard_encapsulations
from tests.conftest import build_performance_flow


def history_pair(size, shape, seed, tmp_path, edit_every=4):
    """The same deterministic workload on both backends."""
    mem = build_history(size, shape, seed=seed, edit_every=edit_every)
    sql = build_history(
        size, shape, seed=seed, edit_every=edit_every,
        store=SqliteHistoryStore(tmp_path / f"{shape}-{seed}.sqlite"))
    return mem, sql


def query_fingerprint(db, handles):
    """Every query family's results, in comparable form."""
    return {
        "backward": {h: sorted(backward_trace(db, h).instances())
                     for h in handles.heads},
        "forward": {s: sorted(forward_trace(db, s).instances())
                    for s in handles.sources},
        "stale": {h: stale_inputs(db, h) for h in handles.heads},
        "successors": {s: [i.instance_id
                           for i in successor_versions(db, s)]
                       for s in handles.sources},
        "closure": {s: sorted(forward_closure(db, s))
                    for s in handles.sources},
    }


class TestBackendEquivalence:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_all_queries_identical(self, shape, tmp_path):
        mem, sql = history_pair(300, shape, seed=5, tmp_path=tmp_path)
        try:
            assert query_fingerprint(mem.db, mem) == \
                query_fingerprint(sql.db, sql)
        finally:
            sql.db.store.close()

    def test_identical_after_cold_reopen(self, tmp_path):
        mem, sql = history_pair(300, "forkjoin", seed=9,
                                tmp_path=tmp_path)
        path = sql.db.store.path
        sql.db.store.close()
        reopened = HistoryDatabase(synth_schema(),
                                   store=SqliteHistoryStore(path))
        try:
            assert query_fingerprint(mem.db, mem) == \
                query_fingerprint(reopened, mem)
            # id allocation resumes past the persisted maxima
            fresh = reopened._new_id("Beta")
            assert fresh not in reopened
            assert fresh > max(reopened.store.ids_of_type("Beta"))
        finally:
            reopened.store.close()

    def test_file_with_older_indexes_answers_unchanged(self, tmp_path):
        # older builds also indexed edges by consumer and instances by
        # invocation; their files still open, answer and take writes
        mem, sql = history_pair(120, "diamond", seed=3,
                                tmp_path=tmp_path)
        path = sql.db.store.path
        sql.db.store._conn.executescript(
            "CREATE INDEX IF NOT EXISTS idx_instances_invocation"
            " ON instances(invocation);"
            "CREATE INDEX IF NOT EXISTS idx_edges_reverse"
            " ON edges(consumer, seq);")
        sql.db.store.close()
        reopened = HistoryDatabase(synth_schema(),
                                   store=SqliteHistoryStore(path))
        try:
            assert query_fingerprint(reopened, mem) == \
                query_fingerprint(mem.db, mem)
            reopened.store.add(EntityInstance("Beta#9999", "Beta"))
            assert "Beta#9999" in reopened.store
        finally:
            reopened.store.close()

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(shape=st.sampled_from(SHAPES),
           size=st.integers(20, 200),
           seed=st.integers(0, 10_000),
           edit_every=st.integers(1, 6))
    def test_property_backends_agree(self, shape, size, seed,
                                     edit_every, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("synth")
        mem = build_history(size, shape, seed=seed,
                            edit_every=edit_every)
        sql = build_history(size, shape, seed=seed,
                            edit_every=edit_every,
                            store=SqliteHistoryStore(tmp / "h.sqlite"))
        try:
            assert [i.to_dict() for i in mem.db.iter_instances()] == \
                [i.to_dict() for i in sql.db.iter_instances()]
            assert query_fingerprint(mem.db, mem) == \
                query_fingerprint(sql.db, sql)
        finally:
            sql.db.store.close()


def fig10_environment(tmp_path):
    """A real design history: simulation run plus an edit chain.

    Mirrors the Fig. 10 benchmark setup — a Performance derivation
    whose History pop-up reveals its creating instances — with enough
    edits for the staleness queries to have work to do.
    """
    from repro.tools import (default_models, exhaustive,
                             install_standard_tools, tech_map)
    from repro.tools.logic import LogicSpec
    from repro import DesignEnvironment
    from repro.schema.standard import odyssey_schema
    from tests.conftest import TickClock

    env = DesignEnvironment(odyssey_schema(), user="fig10",
                            clock=TickClock())
    tools = install_standard_tools(env)
    spec = LogicSpec.from_equations("mux", "y = (a & ~s) | (b & s)")
    models = env.install_data(S.DEVICE_MODELS, default_models(),
                              name="tech")
    stimuli = env.install_data(
        S.STIMULI, exhaustive(("a", "b", "s"), name="all3"), name="all3")
    netlist = env.install_data(S.EDITED_NETLIST, tech_map(spec),
                               name="mux-gates")
    flow, goal = build_performance_flow(
        env, netlist_id=netlist.instance_id,
        models_id=models.instance_id, stimuli_id=stimuli.instance_id,
        simulator_id=tools[S.SIMULATOR].instance_id)
    env.run(flow)
    # edit the netlist after the run: the Performance result goes stale
    from repro.history.instance import DerivationRecord
    editor = tools[S.CIRCUIT_EDITOR]
    env.db.record(
        S.EDITED_NETLIST, tech_map(spec),
        DerivationRecord.make(editor.instance_id,
                              {"previous": netlist.instance_id},
                              env.db.new_invocation_id()),
        user="fig10", name="mux-v2")
    return env


def environment_fingerprint(directory):
    """Byte-comparable digest of every query over a saved environment."""
    env = load_environment(directory)
    register_standard_encapsulations(env)
    db = env.db
    instances = [i.instance_id for i in db.iter_instances()]
    digest = {
        # full meta-data + canonical blob dump (content-addressed
        # text, not live decoded objects, so it is byte-stable)
        "database": db.to_dict(),
        "backward": {i: backward_trace(db, i).render()
                     for i in instances},
        "forward": {i: sorted(forward_trace(db, i).instances())
                    for i in instances},
        "stale": {i: [str(s) for s in stale_inputs(db, i)]
                  for i in instances},
    }
    encoded = json.dumps(digest, sort_keys=True).encode("utf-8")
    if isinstance(db.store, SqliteHistoryStore):
        db.store.close()
    return encoded


class TestMigration:
    def test_fig10_round_trip_byte_identical(self, tmp_path):
        env = fig10_environment(tmp_path)
        directory = tmp_path / "proj"
        save_environment(env, directory)
        before = environment_fingerprint(directory)
        assert stale_inputs(env.db,
                            env.db.latest(S.PERFORMANCE).instance_id)

        assert migrate_environment(directory, BACKEND_SQLITE) is True
        assert (directory / HISTORY_SQLITE_FILE).exists()
        assert not (directory / HISTORY_FILE).exists()
        assert environment_fingerprint(directory) == before

        assert migrate_environment(directory, BACKEND_JSON) is True
        assert (directory / HISTORY_FILE).exists()
        assert not (directory / HISTORY_SQLITE_FILE).exists()
        assert environment_fingerprint(directory) == before

    def test_migrate_is_idempotent(self, tmp_path):
        env = fig10_environment(tmp_path)
        directory = tmp_path / "proj"
        save_environment(env, directory)
        assert migrate_environment(directory, BACKEND_SQLITE) is True
        first = environment_fingerprint(directory)
        assert migrate_environment(directory, BACKEND_SQLITE) is False
        assert environment_fingerprint(directory) == first

    def test_legacy_alias_survives_save_and_migration(self, tmp_path):
        env = fig10_environment(tmp_path)
        directory = tmp_path / "proj"
        save_environment(env, directory)
        # a ref written by a truncating build under another canonical
        # form: 16 hex characters that are not its digest's prefix
        legacy = "0123456789abcdef"
        history = directory / HISTORY_FILE
        payload = json.loads(history.read_text(encoding="utf-8"))
        instance_id, digest = next(
            (spec["instance_id"], spec["data_ref"])
            for spec in payload["instances"] if spec.get("data_ref"))
        assert not digest.startswith(legacy)
        for spec in payload["instances"]:
            if spec.get("data_ref") == digest:
                spec["data_ref"] = legacy
        payload["blobs"][legacy] = payload["blobs"].pop(digest)
        history.write_text(json.dumps(payload, indent=1, sort_keys=True),
                           encoding="utf-8")
        codecs = env.db.datastore.codecs
        expected = codecs.encode(env.db.data(instance_id))

        def check_reload():
            reloaded = load_environment(directory)
            try:
                assert reloaded.db.datastore.resolve(legacy) == digest
                assert codecs.encode(reloaded.db.data(instance_id)) \
                    == expected
            finally:
                if isinstance(reloaded.db.store, SqliteHistoryStore):
                    reloaded.db.store.close()

        # load -> save -> load
        save_environment(load_environment(directory), directory)
        check_reload()
        saved = json.loads(history.read_text(encoding="utf-8"))
        assert saved["aliases"] == {legacy: digest}
        # json -> sqlite -> json
        assert migrate_environment(directory, BACKEND_SQLITE) is True
        check_reload()
        assert migrate_environment(directory, BACKEND_JSON) is True
        check_reload()
        assert json.loads(history.read_text(encoding="utf-8")) == saved

    def test_history_without_legacy_aliases_writes_no_alias_map(
            self, tmp_path):
        env = fig10_environment(tmp_path)
        save_environment(env, tmp_path / "proj")
        payload = read_history_json(tmp_path / "proj" / HISTORY_FILE)
        assert set(payload) == {"schema", "instances", "blobs"}

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 1000))
    def test_property_migrate_round_trip(self, shape, seed,
                                         tmp_path_factory):
        tmp = tmp_path_factory.mktemp("migrate")
        handles = build_history(60, shape, seed=seed, edit_every=2)
        fingerprint = query_fingerprint(handles.db, handles)

        converted = handles.db.converted(
            SqliteHistoryStore(tmp / "m.sqlite"))
        assert query_fingerprint(converted, handles) == fingerprint
        # and back again, via the sqlite copy's full dump
        back = HistoryDatabase.from_dict(synth_schema(),
                                         converted.to_dict())
        converted.store.close()
        assert isinstance(back.store, InMemoryHistoryStore)
        assert query_fingerprint(back, handles) == fingerprint


class TestCorruptTail:
    def test_truncated_history_names_path_and_offset(self, tmp_path):
        handles = build_history(40, "chain", seed=2)
        path = tmp_path / "history.json"
        handles.db.save(str(path))
        text = path.read_text(encoding="utf-8")
        path.write_text(text[:len(text) // 2], encoding="utf-8")
        with pytest.raises(HistoryError) as caught:
            read_history_json(str(path))
        message = str(caught.value)
        assert str(path) in message
        assert "byte offset" in message
        assert "truncated" in message

    def test_load_environment_surfaces_corruption(self, tmp_path):
        env = fig10_environment(tmp_path)
        directory = tmp_path / "proj"
        save_environment(env, directory)
        history = directory / HISTORY_FILE
        text = history.read_text(encoding="utf-8")
        history.write_text(text[:-40], encoding="utf-8")
        with pytest.raises(HistoryError) as caught:
            load_environment(directory)
        assert "byte offset" in str(caught.value)

    @pytest.mark.parametrize("name", [SCHEMA_FILE, FLOWS_FILE, META_FILE])
    def test_torn_environment_file_names_the_file(self, name, tmp_path,
                                                  capsys):
        env = fig10_environment(tmp_path)
        directory = tmp_path / "proj"
        save_environment(env, directory)
        target = directory / name
        text = target.read_text(encoding="utf-8")
        target.write_text(text[:len(text) // 2], encoding="utf-8")
        with pytest.raises(HistoryError) as caught:
            load_environment(directory)
        message = str(caught.value)
        assert str(target) in message
        assert "byte offset" in message
        capsys.readouterr()
        assert main(["info", str(directory)]) == 2
        assert str(target) in capsys.readouterr().err

    def test_intact_history_loads_unchanged(self, tmp_path):
        handles = build_history(40, "diamond", seed=2)
        path = tmp_path / "history.json"
        handles.db.save(str(path))
        payload = read_history_json(str(path))
        restored = HistoryDatabase.from_dict(synth_schema(), payload)
        assert query_fingerprint(restored, handles) == \
            query_fingerprint(handles.db, handles)


@pytest.fixture(params=["memory", "sqlite"])
def bare_store(request, tmp_path):
    if request.param == "memory":
        yield InMemoryHistoryStore()
        return
    store = SqliteHistoryStore(tmp_path / "bare.sqlite")
    yield store
    store.close()


class TestStoreInterface:
    """Both stores keep blobs, aliases and read timing the same way."""

    def test_blobs_and_aliases(self, bare_store):
        assert bare_store.get_blob("d1") is None
        assert bare_store.blob_size("d1") is None
        bare_store.put_blob("d2", '{"b":2}', 7)
        bare_store.put_blob("d1", "[1]", 3)
        bare_store.put_blob("d1", "[9]", 3)  # content-addressed: kept
        assert bare_store.get_blob("d1") == "[1]"
        assert bare_store.blob_size("d2") == 7
        assert bare_store.blob_refs() == ("d1", "d2")
        bare_store.put_blob_alias("old", "d2")
        bare_store.put_blob_alias("old", "d1")  # first mapping wins
        bare_store.put_blob_alias("d1-short", "d1")
        assert bare_store.resolve_blob_alias("old") == "d2"
        assert bare_store.resolve_blob_alias("d2") is None
        assert bare_store.blob_aliases() == (("d1-short", "d1"),
                                             ("old", "d2"))

    def test_each_read_is_timed_once_under_its_fingerprint(
            self, bare_store):
        bare_store.add(EntityInstance("N#1", "Netlist"))
        bare_store.put_blob("d1", "[1]", 3)
        bare_store.put_blob_alias("old", "d1")
        recorder = QueryRecorder()
        bare_store.set_query_recorder(recorder)
        reads = {
            "get_blob": lambda: bare_store.get_blob("d1"),
            "blob_size": lambda: bare_store.blob_size("d1"),
            "blob_refs": bare_store.blob_refs,
            "resolve_blob_alias":
                lambda: bare_store.resolve_blob_alias("old"),
            "blob_aliases": bare_store.blob_aliases,
            "ids_of_type": lambda: bare_store.ids_of_type("Netlist"),
            "consumers_of": lambda: bare_store.consumers_of("N#1"),
            "iter_instances": lambda: list(bare_store.iter_instances()),
        }
        fingerprints = {}
        for name, read in reads.items():
            before = recorder.snapshot()
            read()
            grown = {fingerprint: entry
                     for fingerprint, entry in recorder.snapshot().items()
                     if entry != before.get(fingerprint)}
            assert len(grown) == 1, name
            (fingerprint, entry), = grown.items()
            assert entry["count"] == 1, name
            assert fingerprint == statement_fingerprint(
                entry["statement"])
            fingerprints[name] = fingerprint
        assert len(set(fingerprints.values())) == len(reads)
