"""Tests for the observability subsystem (events, sinks, metrics)."""

import collections
import json
import multiprocessing
import os
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ObservabilityError, ToolError
from repro.execution import ScheduledFlowExecutor, encapsulation
from repro.obs import (CACHE_HIT, CACHE_MISS, COMPOSITION_RUN,
                       EVENT_TYPES, EXECUTION_FAILED, FLOW_FINISHED,
                       FLOW_STARTED, INSTANCE_CREATED, LANE_ASSIGNED,
                       NODE_READY, SCHEMA_VERSION, TOOL_FINISHED,
                       TOOL_INVOKED, Event, EventBus, JSONLSink,
                       MetricsRegistry, NullSink, QueryRecorder,
                       RingBufferSink, RunLedger, RunRecord, append_profile,
                       escape_label_value, read_events, replay_into,
                       sanitize_metric_name, timer_stats_of)
from repro.obs.metrics import _percentile
from repro.obs.sinks import JSONLReader
from repro.schema import standard as S
from tests.conftest import build_performance_flow


@pytest.fixture
def ring(stocked_env) -> RingBufferSink:
    sink = RingBufferSink()
    stocked_env.bus.subscribe(sink)
    return sink


def simulate_flow(env):
    return build_performance_flow(
        env,
        netlist_id=env.netlist.instance_id,
        models_id=env.models.instance_id,
        stimuli_id=env.stimuli.instance_id,
        simulator_id=env.tools[S.SIMULATOR].instance_id)


class TestEventBus:
    def test_emit_without_sinks_is_noop(self):
        bus = EventBus()
        assert not bus.enabled
        assert bus.emit(FLOW_STARTED, flow="f") is None

    def test_emit_dispatches_in_sequence_order(self):
        bus = EventBus()
        sink = RingBufferSink()
        bus.subscribe(sink)
        bus.emit(FLOW_STARTED, flow="f")
        bus.emit(FLOW_FINISHED, flow="f", duration=1.5)
        first, second = sink.events()
        assert (first.seq, second.seq) == (1, 2)
        assert first.event_type == FLOW_STARTED
        assert second.duration == 1.5
        assert second.schema_version == SCHEMA_VERSION

    def test_unknown_event_type_rejected(self):
        bus = EventBus()
        bus.subscribe(NullSink())
        with pytest.raises(ObservabilityError):
            bus.emit("made_up_event")

    def test_sink_without_handle_rejected(self):
        with pytest.raises(ObservabilityError):
            EventBus().subscribe(object())

    def test_unsubscribe_restores_fast_path(self):
        bus = EventBus()
        sink = RingBufferSink()
        bus.subscribe(sink)
        bus.unsubscribe(sink)
        assert not bus.enabled
        assert bus.emit(FLOW_STARTED) is None

    def test_ring_buffer_evicts_oldest(self):
        bus = EventBus()
        sink = RingBufferSink(capacity=3)
        bus.subscribe(sink)
        for _ in range(5):
            bus.emit(NODE_READY, node="n")
        assert [e.seq for e in sink.events()] == [3, 4, 5]


class TestEventOrdering:
    def test_multi_node_flow_event_sequence(self, stocked_env, ring):
        flow, goal = simulate_flow(stocked_env)
        stocked_env.run(flow)
        kinds = [e.event_type for e in ring.events()]
        # one compose invocation (Circuit) then one tool invocation
        # (Simulator), bracketed by flow start/finish
        assert kinds == [
            FLOW_STARTED,
            NODE_READY, TOOL_INVOKED, INSTANCE_CREATED, COMPOSITION_RUN,
            NODE_READY, TOOL_INVOKED, INSTANCE_CREATED, TOOL_FINISHED,
            FLOW_FINISHED,
        ]
        seqs = [e.seq for e in ring.events()]
        assert seqs == sorted(seqs)
        assert all(e.flow == "simulate" for e in ring.events())

    def test_events_join_back_onto_history(self, stocked_env, ring):
        flow, goal = simulate_flow(stocked_env)
        stocked_env.run(flow)
        created = ring.events(INSTANCE_CREATED)
        for event in created:
            instance_id = event.value("instance_id")
            assert instance_id in stocked_env.db
            instance = stocked_env.db.get(instance_id)
            assert instance.derivation.invocation == event.invocation_id
        finished = ring.events(TOOL_FINISHED)[0]
        assert finished.tool_type == S.SIMULATOR
        assert finished.duration > 0
        assert finished.value("created") == [
            created[-1].value("instance_id")]

    def test_installs_emit_instance_created(self, env):
        sink = RingBufferSink()
        env.bus.subscribe(sink)
        env.install_data(S.STIMULI, {"vectors": []}, name="s")
        event = sink.events(INSTANCE_CREATED)[-1]
        assert event.value("installed") is True
        assert event.value("entity_type") == S.STIMULI

    def test_failure_emits_execution_failed(self, stocked_env, ring):
        env = stocked_env

        def explode(ctx, inputs):
            raise ToolError("simulator crashed")

        env.registry.register(S.SIMULATOR,
                              encapsulation("boom", explode))
        flow, goal = simulate_flow(env)
        with pytest.raises(ToolError):
            env.run(flow)
        failed = ring.events(EXECUTION_FAILED)
        assert len(failed) == 1
        assert "simulator crashed" in failed[0].value("error")
        assert not ring.events(FLOW_FINISHED)

    def test_parallel_lanes_emit_lane_events(self, stocked_env):
        env = stocked_env
        sink = RingBufferSink()
        env.bus.subscribe(sink)
        # two disjoint single-node branches: two independent circuits
        flow = env.new_flow("par")
        n1 = flow.place(S.CIRCUIT)
        n2 = flow.place(S.CIRCUIT)
        for node in (n1, n2):
            flow.expand(node)
        for node in flow.nodes():
            if node.entity_type == S.NETLIST:
                flow.bind(node, env.netlist.instance_id)
            elif node.entity_type == S.DEVICE_MODELS:
                flow.bind(node, env.models.instance_id)
        report = env.parallel_executor(machines=2).execute(flow)
        assert len(report.results) == 2
        lanes = sink.events(LANE_ASSIGNED)
        assert len(lanes) == 2
        # a fast lane may release its machine before the other acquires,
        # so distinctness isn't guaranteed — pool membership is
        assert {lane.machine for lane in lanes} <= \
            {"machine0", "machine1"}
        assert all(lane.value("branch") for lane in lanes)
        summary = [e for e in sink.events(FLOW_FINISHED)
                   if e.value("lanes") is not None]
        assert summary and summary[-1].value("lanes") == 2
        assert summary[-1].value("serial_time") == \
            pytest.approx(report.serial_time)


class TestMetricsRegistry:
    def test_aggregation_across_repeated_invocations(self, stocked_env):
        metrics = MetricsRegistry()
        stocked_env.bus.subscribe(metrics)
        flow, goal = simulate_flow(stocked_env)
        stocked_env.run(flow)
        stocked_env.run(flow, force=True)
        stocked_env.run(flow, force=True)
        assert metrics.counter(f"tool.{S.SIMULATOR}.invocations") == 3
        assert metrics.counter("tool.@compose.invocations") == 3
        assert metrics.counter("flows.started") == 3
        assert metrics.counter("flows.finished") == 3
        stats = metrics.timer(f"tool.{S.SIMULATOR}")
        assert stats.count == 3
        assert stats.total == pytest.approx(stats.mean * 3)
        assert stats.p50 <= stats.p95 <= stats.max
        assert metrics.counter("failures") == 0

    def test_counters_and_gauges_api(self):
        metrics = MetricsRegistry()
        metrics.inc("a")
        metrics.inc("a", 4)
        metrics.set_gauge("queue_depth", 7.0)
        assert metrics.counter("a") == 5
        assert metrics.counter("missing") == 0
        assert metrics.gauge("queue_depth") == 7.0
        assert metrics.timer("missing").count == 0

    def test_render_summarizes_failures_and_tools(self):
        metrics = MetricsRegistry()
        bus = EventBus()
        bus.subscribe(metrics)
        bus.emit(FLOW_STARTED, flow="f")
        bus.emit(TOOL_FINISHED, flow="f", tool_type="Simulator",
                 duration=0.25, payload={"runs": 1})
        bus.emit(EXECUTION_FAILED, flow="f", payload={"error": "x"})
        text = metrics.render()
        assert "1 started" in text
        assert "1 failed" in text
        assert "Simulator" in text
        assert "failures by flow: f=1" in text

    def test_snapshot_shape(self):
        metrics = MetricsRegistry()
        metrics.inc("c")
        metrics.observe("t", 0.5)
        snap = metrics.snapshot()
        assert snap["counters"] == {"c": 1}
        assert snap["timers"]["t"]["count"] == 1


class TestJsonlRoundTrip:
    def test_write_replay_identical_sequence(self, stocked_env, ring,
                                             tmp_path):
        log = tmp_path / "events.jsonl"
        jsonl = JSONLSink(log)
        stocked_env.bus.subscribe(jsonl)
        flow, goal = simulate_flow(stocked_env)
        stocked_env.run(flow)
        jsonl.close()
        replayed = read_events(log)
        assert replayed == ring.events()

    def test_replay_into_metrics_matches_live(self, stocked_env, ring,
                                              tmp_path):
        log = tmp_path / "events.jsonl"
        live = MetricsRegistry()
        with JSONLSink(log) as jsonl:
            stocked_env.bus.subscribe(jsonl)
            stocked_env.bus.subscribe(live)
            flow, goal = simulate_flow(stocked_env)
            stocked_env.run(flow)
        offline = MetricsRegistry()
        count = replay_into(read_events(log), offline)
        assert count == len(ring.events())
        assert offline.snapshot() == live.snapshot()

    def test_unsupported_schema_version_rejected(self, tmp_path):
        log = tmp_path / "bad.jsonl"
        log.write_text('{"schema_version": "obs2.v9", "seq": 1, '
                       '"event_type": "flow_started", "timestamp": 0}\n')
        with pytest.raises(ObservabilityError):
            read_events(log)

    def test_corrupt_line_rejected(self, tmp_path):
        log = tmp_path / "bad.jsonl"
        log.write_text("not json\n")
        with pytest.raises(ObservabilityError):
            read_events(log)

    def test_missing_log_rejected(self, tmp_path):
        with pytest.raises(ObservabilityError):
            read_events(tmp_path / "absent.jsonl")


#: Records several times a buffered file handle's 8 KiB buffer, so a
#: writer that reaches the file in pieces shows up as interleaving.
PAD = "x" * 64_000
RECORDS_PER_WRITER = 300


def _append_events(path, writer: str) -> None:
    with JSONLSink(path) as sink:
        for seq in range(RECORDS_PER_WRITER):
            sink.handle(Event(seq=seq, event_type=FLOW_STARTED,
                              timestamp=0.0, flow=writer,
                              payload=(("pad", PAD),)))


def _append_ledger(path, writer: str) -> None:
    ledger = RunLedger(path)
    for seq in range(RECORDS_PER_WRITER):
        ledger.append(RunRecord(run_id=f"{writer}-{seq}", timestamp=0.0,
                                flow=writer, executor="sequential",
                                cache_policy="off", error=PAD))


def _append_profiles(path, writer: str) -> None:
    for seq in range(RECORDS_PER_WRITER):
        append_profile(path, {"run_id": f"{writer}-{seq}",
                              "flow": writer, "pad": PAD})


def _append_on_signal(go, append, path, writer: str) -> None:
    go.wait(timeout=60.0)
    append(path, writer)


class TestConcurrentAppends:
    """Two processes appending to one log never interleave records."""

    @pytest.mark.parametrize(
        "append", [_append_events, _append_ledger, _append_profiles],
        ids=["JSONLSink", "RunLedger.append", "append_profile"])
    def test_writers_never_interleave_records(self, tmp_path, append):
        log = tmp_path / "log.jsonl"
        context = multiprocessing.get_context("fork")
        go = context.Event()
        writers = [context.Process(target=_append_on_signal,
                                   args=(go, append, log, name))
                   for name in ("a", "b")]
        for writer in writers:
            writer.start()
        go.set()  # both forked: start writing together
        for writer in writers:
            writer.join(timeout=60.0)
            assert writer.exitcode == 0
        flows = collections.Counter(
            spec["flow"] for _, spec in JSONLReader(log).read())
        assert flows == {"a": RECORDS_PER_WRITER,
                         "b": RECORDS_PER_WRITER}


def _event_record(path, name: str) -> None:
    with JSONLSink(path) as sink:
        sink.handle(Event(seq=1, event_type=FLOW_STARTED, timestamp=0.0,
                          flow=name))


def _ledger_record(path, name: str) -> None:
    RunLedger(path).append(RunRecord(run_id=name, timestamp=0.0,
                                     flow="f", executor="sequential",
                                     cache_policy="off"))


def _profile_record(path, name: str) -> None:
    append_profile(path, {"run_id": name, "flow": "f", "samples": 0})


def _slow_query_record(path, name: str) -> None:
    QueryRecorder(slow_threshold=0.0, slow_log=path).record(name, 1.0)


class TestTornTail:
    """A killed writer's partial last line is cut by the next append:
    glued onto it, the next record would be lost, and the one after it
    would leave a corrupt line mid-log that every reader rejects."""

    @pytest.mark.parametrize(
        "append, field",
        [(_event_record, "flow"), (_ledger_record, "run_id"),
         (_profile_record, "run_id"), (_slow_query_record, "statement")],
        ids=["JSONLSink", "RunLedger.append", "append_profile",
             "QueryRecorder"])
    @pytest.mark.parametrize("torn", [40, 10_000])
    def test_next_append_cuts_a_torn_tail(self, tmp_path, append, field,
                                          torn):
        log = tmp_path / "log.jsonl"
        append(log, "first")
        with open(log, "ab") as handle:  # a writer killed mid-line
            handle.write(b'{"pad": "' + b"x" * torn)
        append(log, "second")
        append(log, "third")
        assert [spec[field] for _, spec
                in JSONLReader(log).read(strict=False)] == [
            "first", "second", "third"]

    def test_a_pipe_has_no_tail_to_cut(self, tmp_path):
        """An event log on a pipe (``--events /dev/stdout | ...``)
        takes its lines unmended."""
        fifo = tmp_path / "events"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            _event_record(fifo, "piped")
            line = os.read(reader, 65536)
        finally:
            os.close(reader)
        assert json.loads(line)["flow"] == "piped"


class TestSchedulerFedFromEvents:
    def test_duration_model_learns_from_bus(self):
        from repro.execution import DurationModel

        model = DurationModel(default=9.0)
        bus = EventBus()
        bus.subscribe(model)
        bus.emit(TOOL_FINISHED, tool_type="Simulator", duration=2.0)
        bus.emit(TOOL_FINISHED, tool_type="Simulator", duration=4.0)
        bus.emit(COMPOSITION_RUN, tool_type="@compose", duration=1.0)
        assert model.estimate("Simulator") == pytest.approx(3.0)
        assert model.estimate(None) == pytest.approx(1.0)
        assert model.estimate("Extractor") == 9.0

    def test_scheduled_executor_feeds_model_via_events(self, stocked_env):
        env = stocked_env
        flow, goal = simulate_flow(env)
        executor = ScheduledFlowExecutor(env.db, env.registry,
                                         user=env.user, machines=2)
        report = executor.execute(flow)
        assert len(report.results) == 2
        assert S.SIMULATOR in executor.durations.observed_types()
        assert "@compose" in executor.durations.observed_types()
        assert report.wall_time > 0


class TestOverhead:
    def test_no_sink_emission_is_cheap(self):
        bus = EventBus()
        iterations = 20_000
        started = time.perf_counter()
        for _ in range(iterations):
            bus.emit(NODE_READY, flow="f", node="n")
        elapsed = time.perf_counter() - started
        # generous bound: a disabled bus must stay far under 50us/emit
        assert elapsed < iterations * 50e-6

    def test_uninstrumented_executor_uses_noop_bus(self, stocked_env):
        executor = stocked_env.executor()
        assert executor.bus is stocked_env.bus
        assert not executor.bus.enabled
        flow, goal = simulate_flow(stocked_env)
        report = executor.execute(flow)
        assert report.created  # execution unaffected


class TestEventValueHelpers:
    def test_payload_lookup_and_render(self):
        event = Event(seq=1, event_type=FLOW_STARTED, timestamp=0.0,
                      flow="f", payload=(("a", 1),))
        assert event.value("a") == 1
        assert event.value("missing", "dflt") == "dflt"
        assert "flow=f" in event.render()
        assert event.to_dict()["payload"] == {"a": 1}


class TestMetricsHandleCoverage:
    """handle() must aggregate — or deliberately ignore — every event
    type the bus can emit, and tolerate types it has never seen."""

    @staticmethod
    def _event(kind, **overrides):
        payload = tuple(sorted(overrides.pop("payload", {}).items()))
        return Event(seq=1, event_type=kind, timestamp=0.0,
                     payload=payload, **overrides)

    def test_every_known_event_type_is_accepted(self):
        metrics = MetricsRegistry()
        for kind in sorted(EVENT_TYPES):
            metrics.handle(self._event(
                kind, flow="f", tool_type="Simulator", duration=0.1,
                payload={"runs": 2, "queue_wait": 0.01,
                         "entity_type": "Netlist", "bytes": 10,
                         "saved": 0.05}))
        # the aggregating kinds all left their mark
        assert metrics.counter("tool.Simulator.invocations") == 2
        assert metrics.counter("tool.Simulator.runs") == 4
        assert metrics.counter("flows.started") == 1
        assert metrics.counter("flows.finished") == 1
        assert metrics.counter("instances") == 1
        assert metrics.counter("instances.Netlist") == 1
        assert metrics.counter("failures.f") == 1
        assert metrics.counter("cache.hits.Simulator") == 1
        assert metrics.counter("cache.misses.Simulator") == 1
        assert metrics.counter("cache.bytes_saved") == 10
        assert metrics.timer("queue_wait").count == 2
        assert metrics.timer("flow.f").count == 1

    def test_cache_events_aggregate_hits_and_savings(self):
        metrics = MetricsRegistry()
        metrics.handle(self._event(CACHE_HIT, tool_type="Simulator",
                                   payload={"bytes": 64, "saved": 0.5}))
        metrics.handle(self._event(CACHE_MISS, tool_type="Simulator"))
        assert metrics.counter("cache.hits") == 1
        assert metrics.counter("cache.hits.Simulator") == 1
        assert metrics.counter("cache.misses") == 1
        assert metrics.counter("cache.bytes_saved") == 64
        saved = metrics.timer("cache.time_saved")
        assert saved.total == pytest.approx(0.5)

    def test_tool_less_invocations_fall_back_to_compose(self):
        metrics = MetricsRegistry()
        metrics.handle(self._event(TOOL_FINISHED, duration=0.2))
        metrics.handle(self._event(COMPOSITION_RUN, duration=0.1))
        assert metrics.counter("tool.@compose.invocations") == 2

    def test_pure_marker_events_change_nothing(self):
        metrics = MetricsRegistry()
        metrics.handle(self._event(NODE_READY, node="n0"))
        metrics.handle(self._event(TOOL_INVOKED, tool_type="Sim"))
        metrics.handle(self._event(LANE_ASSIGNED, machine="m0"))
        assert metrics.snapshot() == {"counters": {}, "gauges": {},
                                      "timers": {}}

    def test_unknown_event_type_is_tolerated(self):
        metrics = MetricsRegistry()
        metrics.handle(self._event("event_from_the_future",
                                   duration=1.0))
        assert metrics.snapshot() == {"counters": {}, "gauges": {},
                                      "timers": {}}


class TestPercentile:
    def test_single_sample_is_every_percentile(self):
        stats = timer_stats_of([0.25])
        assert stats.p50 == stats.p95 == stats.max == 0.25
        assert stats.mean == 0.25

    def test_two_samples_interpolate(self):
        assert _percentile([1.0, 2.0], 0.5) == pytest.approx(1.5)
        assert _percentile([1.0, 2.0], 0.95) == pytest.approx(1.95)
        assert _percentile([1.0, 2.0], 0.0) == 1.0
        assert _percentile([1.0, 2.0], 1.0) == 2.0

    def test_empty_sample(self):
        assert _percentile([], 0.5) == 0.0
        assert timer_stats_of([]).count == 0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1,
                    max_size=50),
           st.floats(min_value=0.0, max_value=1.0))
    def test_percentile_bounded_by_sample(self, values, fraction):
        ordered = sorted(values)
        result = _percentile(ordered, fraction)
        assert ordered[0] <= result <= ordered[-1]

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1,
                    max_size=50))
    def test_percentiles_are_monotone(self, values):
        ordered = sorted(values)
        quantiles = [_percentile(ordered, f)
                     for f in (0.0, 0.25, 0.5, 0.95, 1.0)]
        for lower, upper in zip(quantiles, quantiles[1:]):
            # monotone up to float rounding of the interpolation
            assert lower <= upper or lower == pytest.approx(upper)
        assert quantiles[0] == ordered[0]
        assert quantiles[-1] == ordered[-1]


class TestMetricsThreadSafety:
    def test_concurrent_writers_lose_nothing(self):
        metrics = MetricsRegistry()
        increments = 2_000

        def worker(name):
            for _ in range(increments):
                metrics.inc("shared")
                metrics.observe(f"timer.{name}", 0.001)
                metrics.observe("shared.timer", 0.002)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.counter("shared") == 4 * increments
        assert metrics.timer("shared.timer").count == 4 * increments

    def test_snapshot_while_writing(self):
        metrics = MetricsRegistry()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                metrics.inc("c")
                metrics.observe("t", 0.001)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(200):
                snap = metrics.snapshot()
                timers = snap["timers"]
                if "t" in timers:
                    assert timers["t"]["count"] >= 1
        finally:
            stop.set()
            thread.join()


class TestPrometheusRendering:
    def test_registry_families_and_samples(self):
        metrics = MetricsRegistry()
        metrics.inc("flows.started", 3)
        metrics.set_gauge("queue_depth", 2.0)
        metrics.observe("tool.Simulator", 0.25)
        metrics.observe("tool.Simulator", 0.75)
        text = metrics.render_prometheus()
        assert ("# TYPE repro_flows_started_total counter\n"
                "repro_flows_started_total 3") in text
        assert ("# TYPE repro_queue_depth gauge\n"
                "repro_queue_depth 2.0") in text
        assert "# TYPE repro_tool_Simulator_seconds summary" in text
        assert 'repro_tool_Simulator_seconds{quantile="0.5"} 0.5' \
            in text
        assert "repro_tool_Simulator_seconds_count 2" in text
        assert "repro_tool_Simulator_seconds_sum 1.0" in text
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_name_sanitization_and_label_escaping(self):
        assert sanitize_metric_name("tool.Sim-3/x") == "tool_Sim_3_x"
        assert sanitize_metric_name("0war") == "_0war"
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
        metrics = MetricsRegistry()
        metrics.inc("tool.Weird-Name.runs")
        text = metrics.render_prometheus()
        assert "repro_tool_Weird_Name_runs_total 1" in text
