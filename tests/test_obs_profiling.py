"""Continuous profiling: sampled stacks, memory peaks, query timing.

Covers the PR 9 surface end to end: collapsed-stack collection and the
mergeable :class:`ProfileAggregate` (absorb across worker respawns
never double-counts; clamping keeps self time inside the traced tool
spans — property-tested), the deterministic sampler (scripted clocks,
synchronous sweeps, per-thread tool attribution, opt-in tracemalloc
peaks), the :class:`QueryRecorder` with its fingerprinted slow-query
log (including an injected-slow-statement capture on sqlite), the
``EXPLAIN QUERY PLAN`` index audit, WAL snapshot isolation under
concurrent readers while a writer appends, the machine-readable
timeline model, the profiled-run ledger round trip (schema stays
``ledger.v1``), the two profiling health checks, and the ``repro run
--profile`` / ``repro profile`` CLI surface on all executors.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ObservabilityError
from repro.execution import DesignEnvironment, encapsulation, procpool
from repro.history.instance import EntityInstance
from repro.history.sqlite_store import AUDITED_QUERIES, SqliteHistoryStore
from repro.history.store import InMemoryHistoryStore
from repro.obs import (FAIL, OK, TOOL_SPAN, HealthThresholds,
                       JSONLSink, ProfileAggregate, QueryRecorder,
                       RingBufferSink, RunLedger, RunRecord,
                       SamplingProfiler, UNSAMPLED_FRAME,
                       append_profile, collapse_frames, find_profile,
                       profile_record, read_profiles, render_profile,
                       statement_fingerprint, timeline_model)
from repro.obs.health import (check_query_latency_drift,
                              check_tool_self_time_drift)
from repro.persistence import (PROFILE_FILE, SLOW_QUERY_FILE,
                               save_environment)
from repro.schema import standard as S
from repro.schema.builder import SchemaBuilder
from repro.schema.standard import odyssey_schema
from repro.tools import install_standard_tools, standard_library
from repro.tools import stdcell_layout
from repro.tools.logic import LogicSpec

# ---------------------------------------------------------------------------
# shared fixtures: a 4-branch fan flow with samplable (5ms) tool bodies
# ---------------------------------------------------------------------------


def fan_schema():
    builder = SchemaBuilder("fan")
    builder.data("Spec")
    builder.tool("Tool")
    builder.data("Out")
    builder.produced_by("Out", "Tool", inputs=[("src", "Spec")])
    return builder.build()


def fan_env() -> DesignEnvironment:
    env = DesignEnvironment(fan_schema(), user="tester")

    def fn(ctx, inputs):
        time.sleep(0.005)
        return {"ok": inputs["src"]["n"]}

    env.install_tool("Tool", encapsulation("fan-tool", fn), name="t0")
    for index in range(4):
        env.install_data("Spec", {"n": index}, name=f"s{index}")
    return env


def fan_flow(env: DesignEnvironment):
    tool = env.db.latest("Tool")
    specs = sorted((i for i in env.db.instances()
                    if i.entity_type == "Spec"),
                   key=lambda i: i.name)
    flow = env.new_flow("fan")
    for index, spec in enumerate(specs):
        spec_node = flow.place("Spec", label=f"s{index}")
        flow.bind(spec_node, spec.instance_id)
        out = flow.place("Out", label=f"o{index}")
        tool_node = flow.place("Tool", label=f"t{index}")
        flow.bind(tool_node, tool.instance_id)
        flow.connect(out, tool_node)
        flow.connect(out, spec_node, role="src")
    return flow


def scripted_clock(*ticks: float):
    stream = iter(ticks)
    return lambda: next(stream)


# ---------------------------------------------------------------------------
# statement fingerprints and stack collapsing
# ---------------------------------------------------------------------------
class TestStatementFingerprint:
    def test_stable_across_whitespace(self):
        a = statement_fingerprint("SELECT  x\n FROM t\tWHERE y = ?")
        b = statement_fingerprint("SELECT x FROM t WHERE y = ?")
        assert a == b

    def test_is_short_hex(self):
        fingerprint = statement_fingerprint("SELECT 1")
        assert len(fingerprint) == 12
        int(fingerprint, 16)

    def test_distinct_statements_differ(self):
        assert statement_fingerprint("SELECT 1") != \
            statement_fingerprint("SELECT 2")


class TestCollapseFrames:
    def test_none_is_empty(self):
        assert collapse_frames(None) == ""

    def test_root_first_and_labels(self):
        def inner():
            return collapse_frames(sys._getframe())

        def outer():
            return inner()

        stack = outer()
        labels = stack.split(";")
        assert labels[-1].endswith(":inner")
        assert labels[-2].endswith(":outer")
        assert all(" " not in label for label in labels)

    def test_deep_stacks_truncate_at_the_root(self):
        def recurse(depth):
            if depth == 0:
                return collapse_frames(sys._getframe())
            return recurse(depth - 1)

        stack = recurse(200)
        labels = stack.split(";")
        assert labels[0] == "..."
        from repro.obs.profiling import MAX_STACK_DEPTH
        assert len(labels) == MAX_STACK_DEPTH + 1


# ---------------------------------------------------------------------------
# ProfileAggregate: merge, clamp, containment
# ---------------------------------------------------------------------------
class TestProfileAggregate:
    def test_self_time_bounded_by_busy(self):
        aggregate = ProfileAggregate(0.010)
        aggregate.add_stack("T", "a;b", count=10)  # sampled 100ms
        aggregate.add_invocation("T", busy=0.040)
        assert aggregate.self_time("T") == pytest.approx(0.040)

    def test_self_time_bounded_by_samples(self):
        aggregate = ProfileAggregate(0.010)
        aggregate.add_stack("T", "a;b", count=2)  # sampled 20ms
        aggregate.add_invocation("T", busy=0.500)
        assert aggregate.self_time("T") == pytest.approx(0.020)

    def test_unbusied_tool_uses_sampled_estimate(self):
        aggregate = ProfileAggregate(0.010)
        aggregate.add_stack("T", "a", count=3)
        assert aggregate.self_time("T") == pytest.approx(0.030)

    def test_collapsed_includes_unsampled_tools(self):
        aggregate = ProfileAggregate()
        aggregate.add_stack("Slow", "m:f;m:g", count=2)
        aggregate.add_invocation("Fast", busy=0.0001)
        aggregate.add_invocation("Fast", busy=0.0001)
        lines = aggregate.collapsed().splitlines()
        assert "Slow;m:f;m:g 2" in lines
        assert f"Fast;{UNSAMPLED_FRAME} 2" in lines

    def test_round_trip(self):
        aggregate = ProfileAggregate(0.002)
        aggregate.add_stack("T", "a;b", count=3)
        aggregate.add_invocation("T", busy=0.5, mem_peak=4096)
        aggregate.add_invocation("U", busy=0.25)
        clone = ProfileAggregate.from_dict(aggregate.to_dict())
        assert clone.to_dict() == aggregate.to_dict()
        assert clone.sample_count("T") == 3
        assert clone.self_time("T") == aggregate.self_time("T")

    def test_absorb_rederives_sample_counts(self):
        base = ProfileAggregate(0.001)
        base.add_stack("T", "a", count=4)
        payload = base.to_dict()
        merged = ProfileAggregate(0.001)
        merged.absorb(payload)
        merged.absorb(payload)
        # two worker incarnations with identical stacks: counts sum,
        # and the totals stay consistent with the folded stacks
        assert merged.sample_count("T") == 8
        assert merged.samples == 8
        assert merged.to_dict()["stacks"]["T"]["a"] == 8

    def test_clamp_caps_busy_and_ignores_unknown_tools(self):
        aggregate = ProfileAggregate(0.001)
        aggregate.add_invocation("T", busy=1.0)
        aggregate.clamp_to({"T": 0.25, "Ghost": 0.1})
        assert aggregate.busy_time("T") == pytest.approx(0.25)
        assert "Ghost" not in aggregate.tool_types()

    def test_absorb_folds_two_payloads(self):
        """Two workers' replies: samples re-derived from the stacks,
        busy times summed, memory peaks maxed."""
        a = ProfileAggregate(0.002)
        a.add_stack("T", "x", count=1)
        a.add_invocation("T", busy=0.1)
        a.add_invocation("U", busy=0.05, mem_peak=4096)
        b = ProfileAggregate(0.002)
        b.add_stack("T", "x", count=2)
        b.add_invocation("U", busy=0.2, mem_peak=2048)
        merged = ProfileAggregate(0.002)
        merged.absorb(a.to_dict())
        merged.absorb(b.to_dict())
        assert merged.sample_count("T") == 3
        assert merged.samples == 3
        assert merged.busy_time("T") == pytest.approx(0.1)
        assert merged.busy_time("U") == pytest.approx(0.25)
        assert merged.to_dict()["tools"]["U"]["mem_peak"] == 4096

    @settings(max_examples=60, deadline=None)
    @given(samples=st.integers(0, 500),
           busy=st.floats(0.0, 10.0, allow_nan=False),
           cap=st.floats(0.0, 5.0, allow_nan=False),
           interval=st.floats(0.0001, 0.1, allow_nan=False))
    def test_property_self_time_containment(self, samples, busy, cap,
                                            interval):
        """Self time never exceeds sampled estimate, measured busy
        time, or the span-derived cap the coordinator clamps to."""
        aggregate = ProfileAggregate(interval)
        if samples:
            aggregate.add_stack("T", "a;b", count=samples)
        aggregate.add_invocation("T", busy=busy)
        aggregate.clamp_to({"T": cap})
        self_time = aggregate.self_time("T")
        epsilon = 1e-9
        assert self_time <= samples * interval + epsilon
        assert self_time <= min(busy, cap) + epsilon


# ---------------------------------------------------------------------------
# SamplingProfiler: deterministic sweeps, attribution, memory
# ---------------------------------------------------------------------------
class TestSamplingProfiler:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ObservabilityError):
            SamplingProfiler(0.0)

    def test_invocation_measures_busy_with_scripted_clock(self):
        profiler = SamplingProfiler(0.001,
                                    clock=scripted_clock(2.0, 3.5))
        with profiler.invocation("T"):
            pass
        assert profiler.aggregate.busy_time("T") == pytest.approx(1.5)
        summary = profiler.summary()
        assert summary["tools"]["T"]["calls"] == 1

    def test_sample_once_attributes_stack_to_tool(self):
        profiler = SamplingProfiler(0.001)

        def probe():
            assert profiler.sample_once() == 1
            return "value"

        assert profiler.run("T", probe) == "value"
        assert profiler.aggregate.sample_count("T") == 1
        collapsed = profiler.collapsed()
        assert collapsed.startswith("T;")
        assert ":probe" in collapsed

    def test_sample_once_without_active_threads(self):
        assert SamplingProfiler(0.001).sample_once() == 0

    def test_threads_sampled_under_their_own_tool_types(self):
        profiler = SamplingProfiler(0.001)
        ready = threading.Barrier(3)
        release = threading.Event()

        def body(tool_type):
            with profiler.invocation(tool_type):
                ready.wait(timeout=5)
                release.wait(timeout=5)

        threads = [threading.Thread(target=body, args=(name,))
                   for name in ("Alpha", "Beta")]
        for thread in threads:
            thread.start()
        ready.wait(timeout=5)
        taken = profiler.sample_once()
        release.set()
        for thread in threads:
            thread.join()
        assert taken == 2
        assert profiler.aggregate.sample_count("Alpha") == 1
        assert profiler.aggregate.sample_count("Beta") == 1

    def test_background_sampler_catches_a_busy_body(self):
        profiler = SamplingProfiler(0.0005)
        profiler.start()
        try:
            deadline = time.perf_counter() + 0.05
            with profiler.invocation("Spin"):
                while time.perf_counter() < deadline:
                    pass
        finally:
            profiler.stop()
        assert profiler.aggregate.sample_count("Spin") > 0
        assert profiler.aggregate.self_time("Spin") <= \
            profiler.aggregate.busy_time("Spin") + 1e-9

    def test_memory_peaks_only_when_opted_in(self):
        tracked = SamplingProfiler(0.001, track_memory=True)
        tracked.start()
        try:
            with tracked.invocation("Alloc"):
                blob = bytearray(2_000_000)
                del blob
        finally:
            tracked.stop()
        peak = tracked.summary()["tools"]["Alloc"]["mem_peak_kb"]
        assert peak >= 1024

        untracked = SamplingProfiler(0.001)
        untracked.start()
        try:
            with untracked.invocation("Alloc"):
                blob = bytearray(2_000_000)
                del blob
        finally:
            untracked.stop()
        assert untracked.summary()["tools"]["Alloc"]["mem_peak_kb"] == 0

    def test_summary_includes_attached_query_recorder(self):
        profiler = SamplingProfiler(0.001)
        recorder = QueryRecorder(backend="sqlite")
        recorder.record("SELECT 1", 0.002, rows=1)
        profiler.query_recorder = recorder
        with profiler.invocation("T"):
            pass
        summary = profiler.summary()
        assert summary["query"]["backend"] == "sqlite"
        assert summary["query"]["count"] == 1


# ---------------------------------------------------------------------------
# QueryRecorder: fingerprints and the slow-query log
# ---------------------------------------------------------------------------
class TestQueryRecorder:
    def test_snapshot_aggregates_by_fingerprint(self):
        recorder = QueryRecorder()
        recorder.record("SELECT  a FROM t", 0.002, rows=3)
        recorder.record("SELECT a\nFROM t", 0.004, rows=1)
        snapshot = recorder.snapshot()
        fingerprint = statement_fingerprint("SELECT a FROM t")
        assert set(snapshot) == {fingerprint}
        entry = snapshot[fingerprint]
        assert entry["count"] == 2
        assert entry["rows"] == 4
        assert entry["total_s"] == pytest.approx(0.006)
        assert entry["max_s"] == pytest.approx(0.004)

    def test_timed_reports_rows_via_the_cell(self):
        recorder = QueryRecorder(clock=scripted_clock(1.0, 1.25))
        with recorder.timed("SELECT b FROM t") as cell:
            cell[0] = 7
        entry = recorder.snapshot()[
            statement_fingerprint("SELECT b FROM t")]
        assert entry["rows"] == 7
        assert entry["total_s"] == pytest.approx(0.25)

    def test_summary_empty_until_recorded(self):
        recorder = QueryRecorder(backend="json")
        assert recorder.summary() == {}
        recorder.record("MEM SCAN instances", 0.001, rows=10)
        summary = recorder.summary()
        assert summary["backend"] == "json"
        assert summary["statements"] == 1
        assert summary["slow"] == 0

    def test_slow_statements_land_in_the_jsonl_log(self, tmp_path):
        log = tmp_path / "slow_queries.jsonl"
        recorder = QueryRecorder(slow_threshold=0.005, slow_log=log,
                                 backend="sqlite")
        recorder.record("SELECT fast", 0.001)
        recorder.record("SELECT  slow FROM t", 0.02, rows=9)
        lines = log.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["fingerprint"] == \
            statement_fingerprint("SELECT slow FROM t")
        assert entry["statement"] == "SELECT slow FROM t"
        assert entry["rows"] == 9
        assert entry["backend"] == "sqlite"
        assert recorder.summary()["slow"] == 1


# ---------------------------------------------------------------------------
# history-backend query observability
# ---------------------------------------------------------------------------
def instance_batch(start: int, count: int) -> list[EntityInstance]:
    return [EntityInstance(f"N#{serial}", "Netlist", user="t",
                           timestamp=float(serial))
            for serial in range(start, start + count)]


class TestSqliteQueryObservability:
    def test_reads_are_timed_with_audited_fingerprints(self, tmp_path):
        seeded = SqliteHistoryStore(tmp_path / "h.sqlite")
        for instance in instance_batch(1, 5):
            seeded.add(instance)
        seeded.close()
        # reopen cold so reads hit SQL, not the write-through cache
        store = SqliteHistoryStore(tmp_path / "h.sqlite")
        try:
            recorder = QueryRecorder(backend="sqlite")
            store.set_query_recorder(recorder)
            assert store.get("N#3") is not None
            assert store.ids_of_type("Netlist") == tuple(
                f"N#{serial}" for serial in range(1, 6))
            by_name = {entry[0]: entry[1] for entry in AUDITED_QUERIES}
            snapshot = recorder.snapshot()
            assert statement_fingerprint(
                by_name["instance-by-id"]) in snapshot
            typed = snapshot[statement_fingerprint(
                by_name["instances-of-type"])]
            assert typed["rows"] == 5
        finally:
            store.close()

    def test_detached_recorder_stops_timing(self, tmp_path):
        store = SqliteHistoryStore(tmp_path / "h.sqlite")
        try:
            recorder = QueryRecorder()
            store.set_query_recorder(recorder)
            store.get("N#1")
            counted = len(recorder.snapshot())
            store.set_query_recorder(None)
            store.get("N#1")
            assert len(recorder.snapshot()) == counted
        finally:
            store.close()

    def test_query_plan_audit_uses_indexes_everywhere(self, tmp_path):
        store = SqliteHistoryStore(tmp_path / "h.sqlite")
        try:
            audits = {entry["name"]: entry
                      for entry in store.query_plan_audit()}
            assert set(audits) == {name for name, _, _, _
                                   in AUDITED_QUERIES}
            for name, statement, _, expect_index in AUDITED_QUERIES:
                entry = audits[name]
                assert entry["fingerprint"] == \
                    statement_fingerprint(statement)
                assert entry["expect_index"] is expect_index
                if expect_index:
                    assert entry["uses_index"], \
                        f"{name} lost its index: {entry['plan']}"
                    assert not entry["full_scan"]
            # the whole-history walk is the one sanctioned scan
            assert audits["history-scan"]["full_scan"]
        finally:
            store.close()

    def test_injected_slow_statement_is_captured(self, tmp_path):
        store = SqliteHistoryStore(tmp_path / "h.sqlite")
        log = tmp_path / "slow_queries.jsonl"
        try:
            recorder = QueryRecorder(slow_threshold=0.005,
                                     slow_log=log, backend="sqlite")
            store.set_query_recorder(recorder)
            store._conn.create_function(
                "repro_sleep", 1,
                lambda seconds: time.sleep(seconds) or 0)
            store._fetchall("SELECT repro_sleep(0.02)")
        finally:
            store.close()
        entries = [json.loads(line) for line in
                   log.read_text(encoding="utf-8").splitlines()]
        assert len(entries) == 1
        assert entries[0]["fingerprint"] == \
            statement_fingerprint("SELECT repro_sleep(0.02)")
        assert entries[0]["seconds"] >= 0.02

    def test_wal_snapshot_isolation_under_concurrent_readers(
            self, tmp_path):
        """Readers on their own connections never block the writer,
        always see a consistent prefix, and their timers carry the
        audited statement fingerprints."""
        path = tmp_path / "h.sqlite"
        writer = SqliteHistoryStore(path)
        for instance in instance_batch(1, 10):
            writer.add(instance)
        writer.flush()

        stop = threading.Event()
        failures: list[str] = []
        recorders = [QueryRecorder(backend="sqlite") for _ in range(3)]

        def read_loop(recorder):
            reader = SqliteHistoryStore(path)
            reader.set_query_recorder(recorder)
            try:
                last = 0
                while True:
                    done = stop.is_set()  # always read at least once
                    ids = reader.ids_of_type("Netlist")
                    if len(ids) < last:
                        failures.append(
                            f"count went backwards: {len(ids)} < {last}")
                        return
                    last = len(ids)
                    # every visible prefix is dense: no torn writes
                    if ids != tuple(f"N#{serial}" for serial
                                    in range(1, len(ids) + 1)):
                        failures.append(f"torn prefix: {ids[-3:]}")
                        return
                    if ids and reader.get(ids[-1]) is None:
                        failures.append(f"missing row {ids[-1]}")
                        return
                    if done:
                        return
            finally:
                reader.close()

        threads = [threading.Thread(target=read_loop, args=(recorder,))
                   for recorder in recorders]
        for thread in threads:
            thread.start()
        try:
            for serial in range(11, 61):
                writer.add(EntityInstance(f"N#{serial}", "Netlist",
                                          user="t",
                                          timestamp=float(serial)))
                writer.flush()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            writer.close()
        assert failures == []
        by_name = {entry[0]: entry[1] for entry in AUDITED_QUERIES}
        typed_fingerprint = statement_fingerprint(
            by_name["instances-of-type"])
        for recorder in recorders:
            snapshot = recorder.snapshot()
            assert typed_fingerprint in snapshot
            assert snapshot[typed_fingerprint]["count"] > 0


class TestJsonScanObservability:
    def test_scan_paths_are_timed(self):
        store = InMemoryHistoryStore()
        for instance in instance_batch(1, 4):
            store.add(instance)
        recorder = QueryRecorder(backend="json")
        store.set_query_recorder(recorder)
        assert len(list(store.iter_instances())) == 4
        assert store.ids_of_type("Netlist")
        store.consumers_of("N#1")
        snapshot = recorder.snapshot()
        scanned = snapshot[statement_fingerprint("MEM SCAN instances")]
        assert scanned["rows"] == 4
        assert statement_fingerprint(
            "MEM SELECT instances BY entity_type") in snapshot
        assert statement_fingerprint(
            "MEM SELECT consumers BY antecedent") in snapshot

    def test_no_recorder_means_no_overhead_path(self):
        store = InMemoryHistoryStore()
        store.add(EntityInstance("N#1", "Netlist"))
        assert store._recorder is None
        assert list(store.iter_instances())


# ---------------------------------------------------------------------------
# the profiles.jsonl log and its CLI-facing helpers
# ---------------------------------------------------------------------------
class TestProfileLog:
    def make_aggregate(self):
        aggregate = ProfileAggregate(0.001)
        aggregate.add_stack("T", "m:f", count=2)
        aggregate.add_invocation("T", busy=0.01)
        return aggregate

    def test_record_round_trips_through_the_log(self, tmp_path):
        record = profile_record(
            self.make_aggregate(), run_id="run0001", trace_id="t1",
            flow="fan", executor="scheduled",
            query={"backend": "sqlite", "count": 3, "total_s": 0.001},
            timestamp=123.0)
        log = tmp_path / PROFILE_FILE
        append_profile(log, record)
        append_profile(log, profile_record(self.make_aggregate(),
                                           run_id="run0002",
                                           timestamp=124.0))
        records = read_profiles(log)
        assert [r["run_id"] for r in records] == ["run0001", "run0002"]
        assert records[0]["schema_version"] == "profile.v1"
        loaded = ProfileAggregate.from_dict(records[0])
        assert loaded.sample_count("T") == 2

    def test_find_profile_latest_prefix_and_errors(self, tmp_path):
        log = tmp_path / PROFILE_FILE
        for run_id in ("run0001", "run0002", "xyz9"):
            append_profile(log, profile_record(self.make_aggregate(),
                                               run_id=run_id,
                                               timestamp=1.0))
        records = read_profiles(log)
        assert find_profile(records)["run_id"] == "xyz9"
        assert find_profile(records, "run0002")["run_id"] == "run0002"
        with pytest.raises(ObservabilityError):
            find_profile(records, "run000")  # ambiguous
        with pytest.raises(ObservabilityError):
            find_profile(records, "nope")
        with pytest.raises(ObservabilityError):
            find_profile(())

    def test_render_profile_mentions_tools_and_queries(self):
        record = profile_record(
            self.make_aggregate(), run_id="run0042", flow="fan",
            executor="procpool",
            query={"backend": "sqlite", "statements": 2, "count": 9,
                   "total_s": 0.004, "max_s": 0.003, "slow": 1},
            timestamp=1.0)
        rendered = render_profile(record)
        assert "run0042" in rendered
        assert "T: self" in rendered
        assert "queries (sqlite): 2 statement(s)" in rendered


# ---------------------------------------------------------------------------
# ledger round trip: RunRecord.profile is optional and compatible
# ---------------------------------------------------------------------------
class TestLedgerProfile:
    def make_record(self, profile):
        return RunRecord(run_id="r1", timestamp=1.0, flow="fan",
                         executor="scheduled", cache_policy="off",
                         wall_time=0.1, runs=4, profile=profile)

    def test_profile_round_trips(self):
        profile = {"interval_ms": 1.0, "samples": 8,
                   "tools": {"T": {"self_s": 0.005, "busy_s": 0.02,
                                   "calls": 4, "samples": 5,
                                   "mem_peak_kb": 0}},
                   "query": {"backend": "sqlite", "count": 3,
                             "total_s": 0.0001}}
        record = self.make_record(profile)
        clone = RunRecord.from_dict(record.to_dict())
        assert clone.profile == profile
        assert clone.schema_version == record.schema_version
        assert "profiled=8smp" in clone.render()

    def test_old_ledger_records_load_without_profile(self):
        spec = self.make_record(None).to_dict()
        assert "profile" not in spec
        loaded = RunRecord.from_dict(spec)
        assert loaded.profile == {}


# ---------------------------------------------------------------------------
# the two profiling health checks
# ---------------------------------------------------------------------------
def profiled_record(run_id, self_s, query_mean=None, errors=0):
    profile = {"interval_ms": 1.0, "samples": 10,
               "tools": {"Tool": {"self_s": self_s, "busy_s": self_s,
                                  "calls": 4, "samples": 10,
                                  "mem_peak_kb": 0}}}
    if query_mean is not None:
        profile["query"] = {"backend": "sqlite", "count": 100,
                            "total_s": query_mean * 100}
    return RunRecord(run_id=run_id, timestamp=1.0, flow="fan",
                     executor="scheduled", cache_policy="off",
                     wall_time=0.1, runs=4, errors=errors,
                     profile=profile)


class TestProfilingHealthChecks:
    thresholds = HealthThresholds(min_samples=3)

    def baseline(self, self_s=0.010, query_mean=0.0001):
        return [profiled_record(f"r{index}", self_s, query_mean)
                for index in range(5)]

    def test_self_time_within_baseline_is_ok(self):
        result = check_tool_self_time_drift(
            profiled_record("new", 0.010), self.baseline(),
            self.thresholds)
        assert result.verdict == OK

    def test_self_time_drift_fails(self):
        result = check_tool_self_time_drift(
            profiled_record("new", 0.200), self.baseline(),
            self.thresholds)
        assert result.verdict == FAIL
        assert "Tool" in result.detail

    def test_unprofiled_run_passes_trivially(self):
        record = RunRecord(run_id="r", timestamp=1.0, flow="fan",
                           executor="sequential", cache_policy="off")
        result = check_tool_self_time_drift(record, self.baseline(),
                                            self.thresholds)
        assert result.verdict == OK
        assert "no profile" in result.detail

    def test_errored_baseline_runs_are_ignored(self):
        noisy = self.baseline() + [
            profiled_record(f"bad{index}", 10.0, errors=1)
            for index in range(5)]
        result = check_tool_self_time_drift(
            profiled_record("new", 0.010), noisy, self.thresholds)
        assert result.verdict == OK

    def test_query_latency_within_baseline_is_ok(self):
        result = check_query_latency_drift(
            profiled_record("new", 0.01, query_mean=0.0001),
            self.baseline(), self.thresholds)
        assert result.verdict == OK
        assert "baseline" in result.detail

    def test_query_latency_drift_fails(self):
        result = check_query_latency_drift(
            profiled_record("new", 0.01, query_mean=0.02),
            self.baseline(), self.thresholds)
        assert result.verdict == FAIL
        assert "statement latency" in result.detail

    def test_no_query_telemetry_passes(self):
        result = check_query_latency_drift(
            profiled_record("new", 0.01), self.baseline(),
            self.thresholds)
        assert result.verdict == OK
        assert "no query telemetry" in result.detail


# ---------------------------------------------------------------------------
# timeline model (machine-readable satellite)
# ---------------------------------------------------------------------------
class TestTimelineModel:
    def test_raises_without_spans(self):
        with pytest.raises(ObservabilityError):
            timeline_model(())

    def test_model_matches_a_real_procpool_run(self, tmp_path):
        env = fan_env()
        spans = RingBufferSink(512)
        env.tracer.subscribe(spans)
        env.process_executor(workers=2).execute(fan_flow(env))
        model = timeline_model(tuple(spans.events()))
        assert model["flow"] == "fan"
        assert model["wall"] > 0
        lanes = {lane["lane"] for lane in model["lanes"]}
        assert lanes == {"worker0", "worker1"}
        tasks = [task for lane in model["lanes"]
                 for task in lane["tasks"]]
        assert len(tasks) == 4
        for task in tasks:
            assert 0.0 <= task["start"] <= task["end"] <= model["wall"]
            assert task["status"] == "ok"

    def test_trace_timeline_json_cli(self, tmp_path, capsys):
        env = fan_env()
        sink = JSONLSink(tmp_path / "trace.jsonl")
        env.tracer.subscribe(sink)
        env.process_executor(workers=2).execute(fan_flow(env))
        sink.close()
        assert main(["trace", "timeline", str(tmp_path),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flow"] == "fan"
        assert {lane["lane"] for lane in payload["lanes"]} == \
            {"worker0", "worker1"}


# ---------------------------------------------------------------------------
# executor integration: containment against the traced tool spans
# ---------------------------------------------------------------------------
def tool_span_budget(spans):
    """Summed traced tool-span duration per tool type."""
    budget: dict[str, float] = {}
    for span in spans:
        if span.kind == TOOL_SPAN:
            tool_type = span.value("tool_type",
                                   span.name.split(":", 1)[-1])
            budget[tool_type] = budget.get(tool_type, 0.0) + \
                span.duration
    return budget


class TestExecutorIntegration:
    def profiled_run(self, make_executor):
        env = fan_env()
        spans = RingBufferSink(512)
        env.tracer.subscribe(spans)
        env.profiler = SamplingProfiler(0.001)
        env.profiler.start()
        try:
            make_executor(env).execute(fan_flow(env))
        finally:
            env.profiler.stop()
        return env.profiler.aggregate, tuple(spans.events())

    def assert_contained(self, aggregate, spans):
        budget = tool_span_budget(spans)
        assert "Tool" in aggregate.tool_types()
        assert aggregate.to_dict()["tools"]["Tool"]["calls"] == 4
        for tool_type in aggregate.tool_types():
            assert aggregate.self_time(tool_type) <= \
                budget[tool_type] + 1e-6, \
                f"{tool_type} self time exceeds its traced spans"
        assert "Tool;" in aggregate.collapsed()

    def test_sequential_executor_containment(self):
        aggregate, spans = self.profiled_run(
            lambda env: env.executor())
        self.assert_contained(aggregate, spans)

    def test_scheduled_executor_containment(self):
        aggregate, spans = self.profiled_run(
            lambda env: env.scheduled_executor(machines=2))
        self.assert_contained(aggregate, spans)
        # 4 x 5ms sleeping bodies at a 1ms sweep: the sampler must
        # actually catch some of them in the act
        assert aggregate.sample_count("Tool") > 0

    def test_procpool_ships_profiles_home_and_clamps(self):
        aggregate, spans = self.profiled_run(
            lambda env: env.process_executor(workers=2))
        self.assert_contained(aggregate, spans)
        assert aggregate.sample_count("Tool") > 0

    def test_profiled_pool_forks_from_one_thread(self, monkeypatch):
        """The coordinator brackets no tool body, so an armed profiler
        starts no thread in it: no thread begun since ``start()`` is
        alive when the pool forks."""
        env = fan_env()
        env.profiler = SamplingProfiler(0.001)
        before = set(threading.enumerate())
        forks = []
        start = procpool._WorkerHandle.start

        def spy(handle):
            forks.append(set(threading.enumerate()) - before)
            start(handle)

        monkeypatch.setattr(procpool._WorkerHandle, "start", spy)
        env.profiler.start()
        try:
            env.process_executor(workers=2).execute(fan_flow(env))
        finally:
            env.profiler.stop()
        assert forks == [set(), set()]
        assert env.profiler.aggregate.sample_count("Tool") > 0

    def test_memory_profiled_pool_traces_only_in_workers(self,
                                                         monkeypatch):
        """The coordinator brackets no tool body, so under memory
        profiling it never traces: ``tracemalloc`` is off at every fork
        and after the run, while each worker traces its own bodies and
        reports their peaks."""
        env = fan_env()
        env.profiler = SamplingProfiler(0.001, track_memory=True)
        tracing = []
        start = procpool._WorkerHandle.start

        def spy(handle):
            tracing.append(tracemalloc.is_tracing())
            start(handle)

        monkeypatch.setattr(procpool._WorkerHandle, "start", spy)
        env.profiler.start()
        try:
            env.process_executor(workers=2).execute(fan_flow(env))
            tracing.append(tracemalloc.is_tracing())
        finally:
            env.profiler.stop()
        assert tracing == [False, False, False]
        tools = env.profiler.summary()["tools"]
        assert tools["Tool"]["calls"] == 4
        assert tools["Tool"]["mem_peak_kb"] > 0

    def test_profiled_run_lands_in_the_ledger(self, tmp_path):
        env = fan_env()
        env.ledger = RunLedger(tmp_path / "ledger.jsonl")
        env.profiler = SamplingProfiler(0.001)
        env.profiler.start()
        try:
            env.process_executor(workers=2).execute(fan_flow(env))
        finally:
            env.profiler.stop()
        record = RunLedger(tmp_path / "ledger.jsonl").records()[-1]
        assert record.profile
        assert record.profile["tools"]["Tool"]["calls"] == 4
        assert record.profile["tools"]["Tool"]["self_s"] <= \
            record.profile["tools"]["Tool"]["busy_s"] + 1e-6


# ---------------------------------------------------------------------------
# the CLI surface: repro run --profile and repro profile ...
# ---------------------------------------------------------------------------
def saved_project(tmp_path, name, backend=None):
    env = DesignEnvironment(odyssey_schema(), user="cli")
    tools = install_standard_tools(env)
    library = standard_library()
    spec = LogicSpec.from_equations("f0", "y = a & b")
    layout = env.install_data(
        S.STD_CELL_LAYOUT,
        stdcell_layout(spec, library, {"seed": 0}), name="variant-0")
    flow = env.new_flow("extract")
    netlist = flow.place(S.EXTRACTED_NETLIST)
    flow.expand(netlist)
    flow.bind(flow.sole_node_of_type(S.LAYOUT), layout.instance_id)
    flow.bind(flow.sole_node_of_type(S.EXTRACTOR),
              tools[S.EXTRACTOR].instance_id)
    env.save_flow("extract", flow)
    directory = tmp_path / name
    save_environment(env, directory, backend=backend)
    return directory


class TestProfileCli:
    def test_run_profile_appends_a_record(self, tmp_path, capsys):
        directory = saved_project(tmp_path, "proj", backend="sqlite")
        assert main(["run", str(directory), "extract", "--profile",
                     "--profile-interval-ms", "0.5", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        records = read_profiles(directory / PROFILE_FILE)
        assert len(records) == 1
        record = records[0]
        assert record["schema_version"] == "profile.v1"
        assert record["run_id"]
        assert record["trace_id"]
        assert record["executor"] == "sequential"
        assert S.EXTRACTOR in record["tools"]
        assert record["query"]["backend"] == "sqlite"
        ledger = RunLedger(directory / "ledger.jsonl").records()[-1]
        assert ledger.run_id == record["run_id"]
        assert ledger.profile["tools"][S.EXTRACTOR]["calls"] >= 1

    def test_profile_names_its_own_run(self, tmp_path, capsys,
                                       monkeypatch):
        """Another run's ledger record landing while this run saves (a
        concurrent ``repro run`` on the directory) does not lend this
        run's profile its id."""
        from repro import cli

        directory = saved_project(tmp_path, "proj")
        save = cli.save_environment

        def save_then_other_run_finishes(*args, **kwargs):
            save(*args, **kwargs)
            RunLedger(directory / "ledger.jsonl").append(RunRecord(
                run_id="otherrun0000", timestamp=0.0, flow="other",
                executor="sequential", cache_policy="off"))

        monkeypatch.setattr(cli, "save_environment",
                            save_then_other_run_finishes)
        assert main(["run", str(directory), "extract",
                     "--profile"]) == 0
        own = RunLedger(directory / "ledger.jsonl").records()[-2]
        record = read_profiles(directory / PROFILE_FILE)[-1]
        assert record["run_id"] == own.run_id
        capsys.readouterr()
        assert main(["profile", "show", str(directory),
                     "--run", own.run_id[:4]]) == 0
        assert own.run_id in capsys.readouterr().out

    def test_profile_show_and_flamegraph_and_export(self, tmp_path,
                                                    capsys):
        directory = saved_project(tmp_path, "proj")
        assert main(["run", str(directory), "extract",
                     "--profile"]) == 0
        capsys.readouterr()
        assert main(["profile", "show", str(directory)]) == 0
        shown = capsys.readouterr().out
        assert "profile of run" in shown
        assert S.EXTRACTOR in shown

        out_path = tmp_path / "flame.txt"
        assert main(["profile", "flamegraph", str(directory),
                     "-o", str(out_path)]) == 0
        collapsed = out_path.read_text(encoding="utf-8")
        assert collapsed.strip()
        # every line is valid collapsed-stack: frames, space, count
        for line in collapsed.strip().splitlines():
            frames, _, count = line.rpartition(" ")
            assert frames and int(count) > 0
        assert any(line.startswith(f"{S.EXTRACTOR};")
                   for line in collapsed.splitlines())

        capsys.readouterr()
        assert main(["profile", "export", str(directory)]) == 0
        exported = json.loads(capsys.readouterr().out)
        assert exported["schema_version"] == "profile.v1"

    def test_profile_queries_audits_the_sqlite_backend(self, tmp_path,
                                                       capsys):
        directory = saved_project(tmp_path, "proj", backend="sqlite")
        assert main(["profile", "queries", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "INDEX" in out
        assert "full-scan regression" not in out
        for name, _, _, _ in AUDITED_QUERIES:
            assert name in out

    def test_profile_queries_names_a_wrong_shape_slow_query(
            self, tmp_path, capsys):
        """The slow-query log is decoded, not only counted: a record of
        the wrong shape is an error naming its line, and a torn last
        line is still forgiven."""
        directory = saved_project(tmp_path, "proj", backend="sqlite")
        log = directory / SLOW_QUERY_FILE
        QueryRecorder(slow_threshold=0.0, slow_log=log,
                      backend="sqlite").record("SELECT 1", 0.02, rows=1)
        intact = log.read_text(encoding="utf-8")
        log.write_text(intact + '{"seconds": "slow"}\n',
                       encoding="utf-8")
        capsys.readouterr()
        assert main(["profile", "queries", str(directory)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{log}:2" in err
        log.write_text(intact + '{"ts": 1.0, "backe', encoding="utf-8")
        assert main(["profile", "queries", str(directory)]) == 0
        assert "slow-query log: 1 entries" in capsys.readouterr().out

    def test_profile_queries_rejects_json_backend(self, tmp_path,
                                                  capsys):
        directory = saved_project(tmp_path, "proj")
        assert main(["profile", "queries", str(directory)]) == 2
        assert "migrate" in capsys.readouterr().err

    def test_profile_show_without_profiles_fails(self, tmp_path,
                                                 capsys):
        directory = saved_project(tmp_path, "proj")
        assert main(["profile", "show", str(directory)]) == 2
        assert "no profiles recorded" in capsys.readouterr().err

    def test_run_rejects_bad_interval(self, tmp_path, capsys):
        directory = saved_project(tmp_path, "proj")
        assert main(["run", str(directory), "extract", "--profile",
                     "--profile-interval-ms", "0"]) == 2
        assert "--profile-interval-ms" in capsys.readouterr().err

    def test_profiled_procpool_run_via_cli(self, tmp_path, capsys):
        directory = saved_project(tmp_path, "proj")
        assert main(["run", str(directory), "extract", "--profile",
                     "--profile-interval-ms", "0.5",
                     "--executor", "procpool", "--workers", "2"]) == 0
        records = read_profiles(directory / PROFILE_FILE)
        assert records[-1]["executor"] == "procpool"
        assert S.EXTRACTOR in records[-1]["tools"]
