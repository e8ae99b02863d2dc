"""Tests for the derivation-keyed incremental re-execution cache."""

import json
import sqlite3

import pytest

from repro.errors import ExecutionError
from repro.execution import (CACHE_OFF, CACHE_READWRITE, CACHE_REUSE,
                             DesignEnvironment, encapsulation,
                             fingerprint_callable, normalize_policy)
from repro.execution.cache import DerivationCache
from repro.execution.shared_memo import SharedDerivationMemo
from repro.obs import (CACHE_MISS, COMPOSE_TOOL, INSTANCE_CREATED,
                       MetricsRegistry, RingBufferSink, replay_into)
from repro.persistence import (MEMO_FILE, load_environment,
                               save_environment)
from repro.schema import standard as S
from repro.tools import register_standard_encapsulations
from tests.conftest import build_performance_flow


@pytest.fixture
def counting_env(schema, clock) -> DesignEnvironment:
    """Environment whose tools count their invocations."""
    env = DesignEnvironment(schema, user="tester", clock=clock)
    env.calls = []  # type: ignore[attr-defined]

    def make(tool_name, result=None):
        def fn(ctx, inputs):
            env.calls.append((tool_name, sorted(inputs)))
            if result is not None:
                return result(ctx, inputs)
            return {"made-by": tool_name, "inputs": sorted(inputs)}
        return fn

    env.install_tool(S.EXTRACTOR, encapsulation(
        "x", make("extractor", lambda ctx, ins: {
            t: {"out": t} for t in ctx.output_types})), name="x")
    env.install_tool(S.SIMULATOR, encapsulation("s", make("simulator")),
                     name="s")
    env.install_tool(S.PLOTTER, encapsulation("p", make("plotter")),
                     name="p")
    return env


def simulate_flow(env):
    models = env.install_data(S.DEVICE_MODELS, {"m": 1})
    netlist = env.install_data(S.EDITED_NETLIST, {"n": 1})
    stim = env.install_data(S.STIMULI, [[0]])
    flow, goal = build_performance_flow(
        env, netlist_id=netlist.instance_id, models_id=models.instance_id,
        stimuli_id=stim.instance_id,
        simulator_id=env.db.latest(S.SIMULATOR).instance_id)
    return flow, goal


def rebuilt_flow(env, flow):
    """A fresh copy of a simulate flow, bound to the same instances."""
    return build_performance_flow(
        env, netlist_id=flow.sole_node_of_type(S.NETLIST).bindings[0],
        models_id=flow.sole_node_of_type(S.DEVICE_MODELS).bindings[0],
        stimuli_id=flow.sole_node_of_type(S.STIMULI).bindings[0],
        simulator_id=flow.sole_node_of_type(S.SIMULATOR).bindings[0])


class TestPolicies:
    def test_normalize(self):
        assert normalize_policy(None) == CACHE_OFF
        assert normalize_policy("reuse") == CACHE_REUSE
        assert normalize_policy("readwrite") == CACHE_READWRITE
        with pytest.raises(ExecutionError):
            normalize_policy("sometimes")

    def test_policy_without_cache_rejected(self, counting_env):
        flow, _ = simulate_flow(counting_env)
        executor = counting_env.executor()
        with pytest.raises(ExecutionError):
            executor.execute(flow, cache="reuse")

    def test_override_holds_for_its_call_only(self, counting_env,
                                              tmp_path):
        """``execute(cache=...)`` sets the policy of that run — its
        reads, writes and ledger record — and leaves the executor's."""
        ledger = counting_env.attach_ledger(tmp_path / "ledger.jsonl")
        executor = counting_env.executor(cache="readwrite")
        flow, _ = simulate_flow(counting_env)
        executor.execute(flow, cache="reuse")
        assert len(counting_env.cache) == 0  # reuse never writes
        assert executor.cache_policy == CACHE_READWRITE
        flow2, _ = rebuilt_flow(counting_env, flow)
        executor.execute(flow2)
        assert len(counting_env.cache) == 2  # readwrite again
        assert [r.cache_policy for r in ledger.records()] == \
            [CACHE_REUSE, CACHE_READWRITE]

    def test_off_policy_is_inert(self, counting_env):
        """cache=off must behave byte-identically to no cache at all."""
        flow, goal = simulate_flow(counting_env)
        report = counting_env.run(flow, cache="off")
        assert counting_env._cache is None  # never even constructed
        assert report.cache_hits == 0 and not report.cached
        assert len(counting_env.calls) == 1  # simulator only
        # rerun with force still executes, exactly as without a cache
        counting_env.run(flow, force=True, cache="off")
        assert len(counting_env.calls) == 2

    @pytest.mark.parametrize(
        "first, remembered",
        [("readwrite", True), ("reuse", False), ("off", False)],
        ids=["readwrite", "reuse", "off"])
    def test_only_readwrite_indexes_results(self, counting_env, first,
                                            remembered):
        """What ``repro run --help`` promises: ``reuse`` and ``off`` runs
        never make their own results reusable."""
        counting_env.cache  # constructed before an off run, too
        flow, _ = simulate_flow(counting_env)
        counting_env.run(flow, cache=first)
        calls = len(counting_env.calls)
        flow2, _ = rebuilt_flow(counting_env, flow)
        second = counting_env.run(flow2, cache="reuse")
        if remembered:
            assert second.cache_hits == 2 and second.runs == 0
            assert len(counting_env.calls) == calls
        else:
            assert second.cache_hits == 0 and second.runs == 2
            assert len(counting_env.calls) == calls + 1


class TestReuse:
    def test_warm_rerun_is_fully_coalesced(self, counting_env):
        flow, goal = simulate_flow(counting_env)
        cold = counting_env.run(flow, cache="readwrite")
        calls_after_cold = len(counting_env.calls)
        flow2, goal2 = build_performance_flow(
            counting_env,
            netlist_id=flow.sole_node_of_type(S.NETLIST).bindings[0],
            models_id=flow.sole_node_of_type(S.DEVICE_MODELS).bindings[0],
            stimuli_id=flow.sole_node_of_type(S.STIMULI).bindings[0],
            simulator_id=flow.sole_node_of_type(S.SIMULATOR).bindings[0])
        warm = counting_env.run(flow2, cache="reuse")
        assert len(counting_env.calls) == calls_after_cold  # no tool ran
        assert not warm.results
        assert warm.cache_hits == 2  # circuit composition + simulation
        assert sorted(warm.reused) == sorted(cold.created)
        assert goal2.produced  # goal node carries the reused instance

    def test_force_bypasses_cache_reads(self, counting_env):
        flow, _ = simulate_flow(counting_env)
        counting_env.run(flow, cache="readwrite")
        calls = len(counting_env.calls)
        forced = counting_env.run(flow, force=True, cache="readwrite")
        assert forced.cache_hits == 0
        assert len(counting_env.calls) == calls + 1

    def test_hits_are_reported_and_skip_duration_model(self, counting_env):
        from repro.obs import (CACHE_HIT, COMPOSITION_RUN, TOOL_FINISHED,
                               RingBufferSink)
        flow, _ = simulate_flow(counting_env)
        counting_env.run(flow, cache="readwrite")
        sink = RingBufferSink(64)
        counting_env.bus.subscribe(sink)
        flow2, _ = build_performance_flow(
            counting_env,
            netlist_id=flow.sole_node_of_type(S.NETLIST).bindings[0],
            models_id=flow.sole_node_of_type(
                S.DEVICE_MODELS).bindings[0],
            stimuli_id=flow.sole_node_of_type(S.STIMULI).bindings[0],
            simulator_id=flow.sole_node_of_type(S.SIMULATOR).bindings[0])
        counting_env.run(flow2, cache="reuse")
        kinds = [e.event_type for e in sink.events()]
        assert kinds.count(CACHE_HIT) == 2
        assert TOOL_FINISHED not in kinds  # hits never feed timing
        assert COMPOSITION_RUN not in kinds


class TestOtherExecutors:
    def warm_pair(self, env):
        flow, _ = simulate_flow(env)
        cold = env.run(flow, cache="readwrite")
        flow2, _ = build_performance_flow(
            env,
            netlist_id=flow.sole_node_of_type(S.NETLIST).bindings[0],
            models_id=flow.sole_node_of_type(
                S.DEVICE_MODELS).bindings[0],
            stimuli_id=flow.sole_node_of_type(S.STIMULI).bindings[0],
            simulator_id=flow.sole_node_of_type(S.SIMULATOR).bindings[0])
        return cold, flow2

    def test_parallel_executor_reuses(self, counting_env):
        cold, flow2 = self.warm_pair(counting_env)
        calls = len(counting_env.calls)
        executor = counting_env.parallel_executor(machines=2,
                                                  cache="reuse")
        warm = executor.execute(flow2)
        assert len(counting_env.calls) == calls
        assert warm.cache_hits == 2
        assert sorted(warm.reused) == sorted(cold.created)

    def test_scheduled_executor_reuses(self, counting_env):
        cold, flow2 = self.warm_pair(counting_env)
        calls = len(counting_env.calls)
        executor = counting_env.scheduled_executor(machines=2,
                                                   cache="reuse")
        warm = executor.execute(flow2)
        assert len(counting_env.calls) == calls
        assert warm.cache_hits == 2
        assert sorted(warm.reused) == sorted(cold.created)
        # zero-cost hits: the duration model never saw the cached runs
        assert executor.durations.observed_types() == ()


class TestInvalidation:
    def test_edited_input_misses(self, counting_env):
        flow, _ = simulate_flow(counting_env)
        counting_env.run(flow, cache="readwrite")
        calls = len(counting_env.calls)
        other_netlist = counting_env.install_data(
            S.EDITED_NETLIST, {"n": 2})
        flow2, _ = build_performance_flow(
            counting_env, netlist_id=other_netlist.instance_id,
            models_id=flow.sole_node_of_type(
                S.DEVICE_MODELS).bindings[0],
            stimuli_id=flow.sole_node_of_type(S.STIMULI).bindings[0],
            simulator_id=flow.sole_node_of_type(S.SIMULATOR).bindings[0])
        report = counting_env.run(flow2, cache="reuse")
        assert report.cache_hits == 0
        assert len(counting_env.calls) == calls + 1

    @pytest.mark.parametrize("backend", [None, "json", "sqlite"],
                             ids=["in-process", "json", "sqlite"])
    def test_reregistered_tool_invalidates(self, counting_env, tmp_path,
                                           backend):
        flow, _ = simulate_flow(counting_env)
        counting_env.run(flow, cache="readwrite")
        calls = len(counting_env.calls)
        env = counting_env
        if backend is not None:
            # the changed code arrives with a reload, as in a new
            # `repro run` after editing the tool
            save_environment(counting_env, tmp_path, backend=backend)
            env = load_environment(tmp_path)

        def rewritten(ctx, inputs):
            counting_env.calls.append(("simulator-v2", sorted(inputs)))
            return {"made-by": "v2"}

        env.registry.register(S.SIMULATOR, encapsulation("s2", rewritten))
        # the pre-rewrite result must not satisfy the new key: the
        # simulator runs again even though its inputs are unchanged
        flow2, goal2 = rebuilt_flow(env, flow)
        report = env.run(flow2, cache="reuse")
        assert counting_env.calls[-1][0] == "simulator-v2"
        assert len(counting_env.calls) == calls + 1
        assert env.db.data(goal2.produced[0]) == {"made-by": "v2"}
        # the circuit composition is untouched, so it still coalesces
        assert report.cache_hits == 1
        if backend == "sqlite":
            env.db.store.close()

    def test_stale_history_is_not_reused(self, stocked_env):
        """A cached result whose inputs were superseded is skipped."""
        env = stocked_env
        flow, goal = build_performance_flow(
            env, netlist_id=env.netlist.instance_id,
            models_id=env.models.instance_id,
            stimuli_id=env.stimuli.instance_id,
            simulator_id=env.tools[S.SIMULATOR].instance_id)
        cold = env.run(flow, cache="readwrite")
        # supersede the netlist through an editing task so the cached
        # performance becomes version-wise stale
        from repro.tools import edit_session
        session = edit_session(env, S.CIRCUIT_EDITOR, [
            {"op": "rename", "name": "mux-v2"}], name="fix")
        edit_flow, edit_goal = env.goal_flow(S.EDITED_NETLIST)
        edit_flow.expand(edit_goal, include_optional=["previous"])
        previous = edit_flow.graph.data_suppliers(
            edit_goal.node_id)["previous"]
        edit_flow.bind(edit_flow.node(previous), env.netlist.instance_id)
        edit_flow.bind(edit_flow.sole_node_of_type(S.CIRCUIT_EDITOR),
                       session.instance_id)
        env.run(edit_flow)
        assert env.is_stale(cold.created[-1])
        flow2, _ = build_performance_flow(
            env, netlist_id=env.netlist.instance_id,
            models_id=env.models.instance_id,
            stimuli_id=env.stimuli.instance_id,
            simulator_id=env.tools[S.SIMULATOR].instance_id)
        warm = env.run(flow2, cache="reuse")
        assert warm.cache_hits == 0
        assert env.cache.stats.invalidated >= 1

    def test_optional_input_presence_changes_key(self, stocked_env):
        """SimArgs is optional on Performance: bound vs absent differ."""
        env = stocked_env
        cache = env.cache
        sim_args = env.install_data(S.SIM_ARGS, {"step": 0.1})
        sim_id = env.tools[S.SIMULATOR].instance_id
        combo_without = {"netlist": env.netlist.instance_id}
        combo_with = {"netlist": env.netlist.instance_id,
                      "args": sim_args.instance_id}
        key_without = cache.tool_run_key(sim_id, combo_without,
                                         [S.PERFORMANCE])
        key_with = cache.tool_run_key(sim_id, combo_with,
                                      [S.PERFORMANCE])
        assert key_without != key_with

    def test_explicit_invalidate_clears_index(self, counting_env):
        flow, _ = simulate_flow(counting_env)
        counting_env.run(flow, cache="readwrite")
        counting_env.cache.invalidate()
        calls = len(counting_env.calls)
        report = counting_env.run(flow, force=True, cache="reuse")
        assert report.cache_hits == 0
        assert len(counting_env.calls) == calls + 1


def composition_inputs(flow, node) -> dict[str, str]:
    """A composition node's lookup combo: role -> bound instance id."""
    return {role: flow.graph.node(supplier).bindings[0]
            for role, supplier in flow.graph.data_suppliers(
                node.node_id).items()}


class TestMissesAndRekeys:
    def test_cold_calls_emit_one_miss_each(self, counting_env):
        """A ``readwrite`` run announces each cold call's miss, keyed,
        before the call records its instance; replayed, the misses
        count in the metrics."""
        sink = RingBufferSink()
        counting_env.bus.subscribe(sink)
        flow, goal = simulate_flow(counting_env)
        circuit = flow.sole_node_of_type(S.CIRCUIT)
        counting_env.run(flow, cache="readwrite")
        events = sink.events()
        misses = [e for e in events if e.event_type == CACHE_MISS]
        assert [(e.node, e.tool_type) for e in misses] == \
            [(circuit.node_id, COMPOSE_TOOL), (goal.node_id, S.SIMULATOR)]
        for miss, entity_type in zip(misses, (S.CIRCUIT, S.PERFORMANCE)):
            assert len(miss.value("key")) == 16
            (created,) = [e for e in events
                          if e.event_type == INSTANCE_CREATED
                          and e.value("entity_type") == entity_type]
            assert miss.seq < created.seq
        metrics = MetricsRegistry()
        replay_into(events, metrics)
        assert metrics.counter("cache.misses") == 2

    def test_content_identical_netlist_reuses_through_a_rekey(
            self, counting_env, monkeypatch):
        """A second flow over a netlist with the first one's content
        reuses both calls.  The circuit it reuses was composed from the
        first netlist, so its derivation record names other inputs than
        the lookup: the group is re-keyed, and the key matches."""
        flow, _ = simulate_flow(counting_env)
        counting_env.run(flow, cache="readwrite")
        first = flow.sole_node_of_type(S.NETLIST).bindings[0]
        twin = counting_env.install_data(S.EDITED_NETLIST, {"n": 1})
        flow2, _ = build_performance_flow(
            counting_env, netlist_id=twin.instance_id,
            models_id=flow.sole_node_of_type(S.DEVICE_MODELS).bindings[0],
            stimuli_id=flow.sole_node_of_type(S.STIMULI).bindings[0],
            simulator_id=flow.sole_node_of_type(S.SIMULATOR).bindings[0])
        keyed: list[set[str]] = []
        compose = DerivationCache.composition_key

        def spy(self, entity_type, combo):
            keyed.append({i for ref in combo.values()
                          for i in ([ref] if isinstance(ref, str)
                                    else ref)})
            return compose(self, entity_type, combo)

        monkeypatch.setattr(DerivationCache, "composition_key", spy)
        calls = len(counting_env.calls)
        report = counting_env.run(flow2, cache="readwrite")
        assert (report.cache_hits, report.runs) == (2, 0)
        assert len(counting_env.calls) == calls
        # the lookup, then the re-key from the reused circuit's record
        assert [twin.instance_id in ids for ids in keyed] == [True, False]
        assert first in keyed[1]

    def test_memo_line_naming_an_installed_instance_is_skipped(
            self, counting_env, tmp_path, monkeypatch):
        """A memo line under the circuit lookup's key that names an
        installed circuit (no derivation record) is not a run of that
        key: the lookup misses, and nothing counts as invalidated."""
        memo = tmp_path / MEMO_FILE
        counting_env.enable_shared_memo(memo)
        flow, _ = simulate_flow(counting_env)
        circuit = flow.sole_node_of_type(S.CIRCUIT)
        cache = counting_env.cache
        key = cache.composition_key(
            S.CIRCUIT, composition_inputs(flow, circuit))
        installed = counting_env.install_data(S.CIRCUIT, {"c": 1})
        SharedDerivationMemo(memo).append(
            [(key, ((S.CIRCUIT, installed.instance_id),), 0.0)])
        looked_up: list[str] = []
        fetch = DerivationCache.fetch

        def spy(self, key, *args, **kwargs):
            looked_up.append(key)
            return fetch(self, key, *args, **kwargs)

        monkeypatch.setattr(DerivationCache, "fetch", spy)
        report = counting_env.run(flow, cache="reuse")
        assert looked_up[0] == key
        assert report.cache_hits == 0
        assert (cache.stats.misses, cache.stats.invalidated) == (2, 0)
        assert installed.instance_id not in circuit.results()


class TestFingerprints:
    def test_nested_code_objects_are_stable(self):
        def with_comprehension(ctx, inputs):
            return {k: v for k, v in inputs.items()}

        first = fingerprint_callable(with_comprehension)
        second = fingerprint_callable(with_comprehension)
        assert first == second
        assert "0x" not in first

    def test_different_code_different_fingerprint(self):
        def a(ctx, inputs):
            return 1

        def b(ctx, inputs):
            return 2

        assert fingerprint_callable(a) != fingerprint_callable(b)

    def test_preset_args_change_fingerprint(self):
        base = encapsulation("e", lambda ctx, ins: None, mode="fast")
        slow = base.with_args("e", mode="slow")
        assert base.fingerprint() != slow.fingerprint()


class TestPersistence:
    def test_cache_round_trips_through_save_load(self, tmp_path,
                                                 stocked_env):
        env = stocked_env
        flow, _ = build_performance_flow(
            env, netlist_id=env.netlist.instance_id,
            models_id=env.models.instance_id,
            stimuli_id=env.stimuli.instance_id,
            simulator_id=env.tools[S.SIMULATOR].instance_id)
        cold = env.run(flow, cache="readwrite")
        save_environment(env, tmp_path)
        assert (tmp_path / MEMO_FILE).exists()

        reloaded = load_environment(tmp_path)
        register_standard_encapsulations(reloaded)
        flow2, _ = build_performance_flow(
            reloaded, netlist_id=env.netlist.instance_id,
            models_id=env.models.instance_id,
            stimuli_id=env.stimuli.instance_id,
            simulator_id=env.tools[S.SIMULATOR].instance_id)
        warm = reloaded.run(flow2, cache="reuse")
        assert not warm.results
        assert sorted(warm.reused) == sorted(cold.created)

    def test_saving_elsewhere_carries_the_index_over(self, tmp_path,
                                                     stocked_env):
        env = stocked_env
        flow, _ = build_performance_flow(
            env, netlist_id=env.netlist.instance_id,
            models_id=env.models.instance_id,
            stimuli_id=env.stimuli.instance_id,
            simulator_id=env.tools[S.SIMULATOR].instance_id)
        cold = env.run(flow, cache="readwrite")
        save_environment(env, tmp_path / "a")
        # the copy never touches its cache before it is saved elsewhere
        save_environment(load_environment(tmp_path / "a"), tmp_path / "b")
        assert (tmp_path / "b" / MEMO_FILE).read_text() == \
            (tmp_path / "a" / MEMO_FILE).read_text()
        reloaded = load_environment(tmp_path / "b")
        register_standard_encapsulations(reloaded)
        warm = reloaded.run(rebuilt_flow(reloaded, flow)[0], cache="reuse")
        assert not warm.results
        assert sorted(warm.reused) == sorted(cold.created)

    def test_reload_prefers_newest_group_after_force(self, tmp_path,
                                                     stocked_env):
        # a forced re-run stores a second group under the same key; the
        # memo keeps both in the order they were stored, and fetch
        # tries the newest first
        env = stocked_env
        flow, _ = build_performance_flow(
            env, netlist_id=env.netlist.instance_id,
            models_id=env.models.instance_id,
            stimuli_id=env.stimuli.instance_id,
            simulator_id=env.tools[S.SIMULATOR].instance_id)
        env.run(flow, cache="readwrite")
        save_environment(env, tmp_path)

        mid = load_environment(tmp_path)
        register_standard_encapsulations(mid)
        flow2, _ = build_performance_flow(
            mid, netlist_id=env.netlist.instance_id,
            models_id=env.models.instance_id,
            stimuli_id=env.stimuli.instance_id,
            simulator_id=env.tools[S.SIMULATOR].instance_id)
        forced = mid.run(flow2, cache="readwrite", force=True)
        save_environment(mid, tmp_path)

        reloaded = load_environment(tmp_path)
        register_standard_encapsulations(reloaded)
        flow3, _ = build_performance_flow(
            reloaded, netlist_id=env.netlist.instance_id,
            models_id=env.models.instance_id,
            stimuli_id=env.stimuli.instance_id,
            simulator_id=env.tools[S.SIMULATOR].instance_id)
        warm = reloaded.run(flow3, cache="reuse")
        assert not warm.results
        assert sorted(warm.reused) == sorted(forced.created)

    def test_index_copies_of_older_directories_are_ignored(
            self, tmp_path, stocked_env):
        """The index copies older builds kept beside the memo — a
        ``cache.json`` (here torn) and SQLite ``derivation_keys`` rows —
        neither block loading nor produce hits."""
        env = stocked_env
        flow, _ = build_performance_flow(
            env, netlist_id=env.netlist.instance_id,
            models_id=env.models.instance_id,
            stimuli_id=env.stimuli.instance_id,
            simulator_id=env.tools[S.SIMULATOR].instance_id)
        env.run(flow, cache="readwrite")
        save_environment(env, tmp_path, backend="sqlite")
        env.db.store.close()
        memo = tmp_path / MEMO_FILE
        lines = [json.loads(line) for line in memo.read_text().splitlines()]
        memo.unlink()
        (tmp_path / "cache.json").write_text('{"entries": {"k', "utf-8")
        conn = sqlite3.connect(tmp_path / "history.sqlite")
        conn.execute("CREATE TABLE IF NOT EXISTS derivation_keys("
                     "key TEXT NOT NULL, outputs TEXT NOT NULL,"
                     " duration REAL NOT NULL DEFAULT 0,"
                     " PRIMARY KEY(key, outputs))")
        conn.executemany(
            "INSERT OR IGNORE INTO derivation_keys VALUES(?, ?, ?)",
            [(line["key"], json.dumps(line["outputs"]), line["duration"])
             for line in lines])
        conn.commit()
        conn.close()
        reloaded = load_environment(tmp_path)
        register_standard_encapsulations(reloaded)
        flow2, _ = build_performance_flow(
            reloaded, netlist_id=env.netlist.instance_id,
            models_id=env.models.instance_id,
            stimuli_id=env.stimuli.instance_id,
            simulator_id=env.tools[S.SIMULATOR].instance_id)
        report = reloaded.run(flow2, cache="reuse")
        # no memo, so nothing is remembered: a miss is always correct
        assert report.cache_hits == 0 and report.runs == 2
        reloaded.db.store.close()

    def test_invocation_counter_survives_reload(self, tmp_path,
                                                stocked_env):
        env = stocked_env
        flow, _ = build_performance_flow(
            env, netlist_id=env.netlist.instance_id,
            models_id=env.models.instance_id,
            stimuli_id=env.stimuli.instance_id,
            simulator_id=env.tools[S.SIMULATOR].instance_id)
        env.run(flow)
        used = {i.derivation.invocation for i in env.db.instances()
                if i.derivation is not None}
        save_environment(env, tmp_path)
        reloaded = load_environment(tmp_path)
        assert reloaded.db.new_invocation_id() not in used


class TestDataStoreDigests:
    def test_full_digests_with_short_ref_compat(self, schema):
        from repro.history import DataStore
        store = DataStore()
        ref = store.put({"x": 1})
        assert len(ref) == 64
        short = ref[:16]
        assert store.get(short) == {"x": 1}  # legacy refs still resolve
        assert store.get(ref) == {"x": 1}
        assert short in store and ref in store

    def test_legacy_history_payload_upgraded(self, schema, clock):
        """Histories saved with truncated refs load and resolve."""
        from repro.history import HistoryDatabase
        db = HistoryDatabase(schema, clock=clock)
        instance = db.install(S.STIMULI, [[0, 1]])
        payload = db.to_dict()
        # simulate a pre-upgrade save: truncate refs everywhere
        for spec in payload["instances"]:
            if spec.get("data_ref"):
                spec["data_ref"] = spec["data_ref"][:16]
        payload["blobs"] = {
            (k[:16]): v for k, v in payload["blobs"].items()}
        db2 = HistoryDatabase.from_dict(schema, payload)
        assert db2.data(instance.instance_id) == [[0, 1]]
