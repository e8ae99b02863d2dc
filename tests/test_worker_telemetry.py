"""Cross-process worker telemetry: spans, timeline, utilization health.

Covers the PR 8 surface end to end: the in-worker recorder and its
pickle-safe phase samples, the clock-offset model and the skew-corrected
merge (property-tested: fitted phases always nest inside the dispatch
window), the clock a forked worker shares with the coordinator, the
procpool integration (merged traces validate, every tool span carries
worker-side phase children, containment holds up the whole span
chain), the worker-lane timeline renderer, the ``--follow`` event
tail, the ledger's optional per-worker stats (old ledgers load
unchanged), and the ``worker-utilization`` health check.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ObservabilityError
from repro.execution import DesignEnvironment, encapsulation
from repro.obs import (FAIL, OK, PHASE_SPAN, RUN_SPAN, TASK_SPAN,
                       TOOL_SPAN, WARN, WORKER_PHASES, WORKER_STATS,
                       ClockSync, Event, HealthThresholds,
                       MetricsRegistry, RingBufferSink, RunLedger,
                       RunRecord, Span, WorkerRunStats,
                       WorkerTelemetry, evaluate_health, fit_phases,
                       render_timeline, validate_spans, worker_imbalance,
                       worker_utilization)
from repro.obs.health import check_worker_utilization
from repro.obs.sinks import JSONLReader
from repro.schema.builder import SchemaBuilder

# ---------------------------------------------------------------------------
# shared fixtures: a 4-branch fan flow on the procpool executor
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


# ---------------------------------------------------------------------------
# WorkerTelemetry: the in-worker recorder
# ---------------------------------------------------------------------------
class TestWorkerTelemetry:
    def test_phases_collected_only_when_asked(self):
        clock = iter(float(i) for i in range(100))
        telemetry = WorkerTelemetry(clock=lambda: next(clock))
        telemetry.begin_envelope(collect=False)
        with telemetry.phase("tool_body"):
            pass
        assert telemetry.phases() == ()
        telemetry.begin_envelope(collect=True)
        with telemetry.phase("decode"):
            pass
        with telemetry.phase("tool_body"):
            pass
        names = [name for name, _, _ in telemetry.phases()]
        assert names == ["decode", "tool_body"]
        for _, start, end in telemetry.phases():
            assert end > start

    def test_phase_recorded_even_when_body_raises(self):
        telemetry = WorkerTelemetry()
        telemetry.begin_envelope(collect=True)
        with pytest.raises(ValueError):
            with telemetry.phase("tool_body"):
                raise ValueError("boom")
        assert [name for name, _, _ in telemetry.phases()] \
            == ["tool_body"]

    def test_begin_envelope_resets_scratch(self):
        telemetry = WorkerTelemetry()
        telemetry.begin_envelope(collect=True)
        with telemetry.phase("decode"):
            pass
        telemetry.begin_envelope(collect=True)
        assert telemetry.phases() == ()


# ---------------------------------------------------------------------------
# ClockSync + fit_phases: the skew-corrected merge
# ---------------------------------------------------------------------------
class TestClockSync:
    def test_midpoint_estimate_recovers_known_offset(self):
        # worker clock runs 100s ahead; symmetric 2ms round trip
        sync = ClockSync.estimate(10.0, 110.001, 10.002)
        assert sync.synced
        assert sync.offset == pytest.approx(100.0)
        assert sync.rtt == pytest.approx(0.002)
        assert sync.correct(110.5) == pytest.approx(10.5)

    def test_default_sync_is_identity(self):
        sync = ClockSync()
        assert not sync.synced
        assert sync.correct(42.0) == 42.0

    def test_fit_without_window_only_corrects(self):
        sync = ClockSync(offset=5.0, synced=True)
        fitted = fit_phases([("tool_body", 6.0, 7.0)], sync, None)
        assert fitted == (("tool_body", 1.0, 2.0),)

    def test_fit_clamps_into_window(self):
        sync = ClockSync()  # no correction: samples land outside
        fitted = fit_phases(
            [("decode", 0.0, 1.0), ("tool_body", 1.0, 9.0)],
            sync, (2.0, 5.0))
        assert fitted == (("decode", 2.0, 2.0),
                          ("tool_body", 2.0, 5.0))

    @settings(max_examples=120)
    @given(offset=st.floats(-1e3, 1e3),
           window_start=st.floats(0.0, 1e3),
           window_len=st.floats(0.0, 10.0),
           samples=st.lists(
               st.tuples(st.sampled_from(WORKER_PHASES),
                         st.floats(0.0, 2e3),
                         st.floats(0.0, 10.0)),
               max_size=6))
    def test_fitted_phases_always_nest_inside_window(
            self, offset, window_start, window_len, samples):
        """The paper-cut invariant: whatever the skew estimate error,
        merged phases stay inside the coordinator-observed dispatch
        window, ordered (end >= start), one output per input."""
        sync = ClockSync(offset=offset, rtt=0.001, synced=True)
        phases = [(name, start, start + length)
                  for name, start, length in samples]
        window = (window_start, window_start + window_len)
        fitted = fit_phases(phases, sync, window)
        assert len(fitted) == len(phases)
        for (name, start, end), (orig, _, _) in zip(fitted, phases):
            assert name == orig
            assert window[0] <= start <= end <= window[1]


def _answer_with_clock(conn) -> None:
    while conn.recv() is not None:
        conn.send(time.perf_counter())


class TestForkedWorkerClock:
    def test_forked_worker_reads_the_coordinator_clock(self):
        """Procpool places worker phases without an offset: a forked
        child's ``perf_counter`` read between the coordinator's send
        and receive lies inside that window."""
        context = multiprocessing.get_context("fork")
        parent, child = context.Pipe()
        worker = context.Process(target=_answer_with_clock,
                                 args=(child,), daemon=True)
        worker.start()
        child.close()
        try:
            for _ in range(50):
                sent = time.perf_counter()
                parent.send(True)
                assert parent.poll(10.0)
                worker_clock = parent.recv()
                received = time.perf_counter()
                assert sent <= worker_clock <= received
        finally:
            parent.send(None)
            worker.join(timeout=10.0)
            parent.close()
        assert not worker.is_alive()


# ---------------------------------------------------------------------------
# WorkerRunStats: math + serialization
# ---------------------------------------------------------------------------
class TestWorkerRunStats:
    def test_round_trip(self):
        stats = WorkerRunStats(batches=3, invocations=7, steals=2,
                               respawns=1, cache_hits=4,
                               busy_time=1.5, idle_time=0.5,
                               rss_kb=2048)
        assert WorkerRunStats.from_dict(stats.to_dict()) == stats

    def test_render_hides_zero_counters(self):
        text = WorkerRunStats(batches=1, invocations=2,
                              busy_time=0.1).render()
        assert "steals" not in text and "respawns" not in text
        busy = WorkerRunStats(steals=3, respawns=1, batches=1,
                              invocations=1, busy_time=0.1).render()
        assert "steals=3" in busy and "respawns=1" in busy

    def test_utilization_and_imbalance(self):
        workers = {"w0": WorkerRunStats(busy_time=1.0),
                   "w1": WorkerRunStats(busy_time=3.0)}
        assert worker_utilization(workers, 2.0) \
            == pytest.approx(4.0 / 4.0)
        assert worker_imbalance(workers) == pytest.approx(1.5)
        assert worker_utilization({}, 2.0) == 0.0
        assert worker_utilization(workers, 0.0) == 0.0
        assert worker_imbalance({}) == 1.0
        assert worker_imbalance(
            {"w0": WorkerRunStats(busy_time=0.0)}) == 1.0


# ---------------------------------------------------------------------------
# procpool integration: merged traces are complete and contained
# ---------------------------------------------------------------------------
class TestProcpoolTraceMerge:
    @pytest.fixture
    def traced_run(self):
        env = fan_env()
        spans = RingBufferSink(512)
        env.tracer.subscribe(spans)
        events = RingBufferSink(512)
        env.bus.subscribe(events)
        report = env.process_executor(workers=2).execute(fan_flow(env))
        return report, tuple(spans.events()), events

    def test_merged_trace_validates_with_no_orphans(self, traced_run):
        _, spans, _ = traced_run
        assert validate_spans(spans) == []

    def test_every_tool_span_has_worker_phase_children(self,
                                                       traced_run):
        _, spans, _ = traced_run
        tools = [s for s in spans if s.kind == TOOL_SPAN]
        phases = [s for s in spans if s.kind == PHASE_SPAN]
        assert len(tools) == 4
        for tool in tools:
            children = [p for p in phases
                        if p.parent_id == tool.span_id]
            assert children, f"tool span {tool.name} has no phases"
            names = {p.value("phase") for p in children}
            assert "tool_body" in names
            for child in children:
                assert child.value("worker", "").startswith("worker")

    def test_child_intervals_nest_inside_parents(self, traced_run):
        """Skew-corrected worker spans stay inside their parents all
        the way up: phase < tool < task < lane < run."""
        _, spans, _ = traced_run
        by_id = {s.span_id: s for s in spans}
        tolerance = 1e-9
        for span in spans:
            if span.parent_id is None:
                continue
            parent = by_id[span.parent_id]
            assert parent.start - tolerance <= span.start
            assert span.end <= parent.end + tolerance

    def test_worker_stats_events_emitted_per_worker(self, traced_run):
        report, _, events = traced_run
        stats = events.events(WORKER_STATS)
        assert {e.machine for e in stats} == {"worker0", "worker1"}
        assert sum(e.value("invocations") for e in stats) \
            == report.runs

    def test_run_record_carries_worker_stats(self, tmp_path):
        env = fan_env()
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        env.ledger = ledger
        env.process_executor(workers=2).execute(fan_flow(env))
        record = RunLedger(tmp_path / "ledger.jsonl").records()[-1]
        assert set(record.workers) == {"worker0", "worker1"}
        total = sum(w.invocations for w in record.workers.values())
        assert total == 4
        assert record.worker_utilization > 0


# ---------------------------------------------------------------------------
# timeline rendering (deterministic fixture)
# ---------------------------------------------------------------------------
def lane_fixture() -> list[Span]:
    """Two workers, three tasks, hand-built timestamps."""

    def span(span_id, parent, name, kind, start, end, **attrs):
        return Span("t1", span_id, parent, name, kind, start, end,
                    attributes=attrs)

    return [
        span("s1", None, "run:f", RUN_SPAN, 0.0, 10.0, flow="f"),
        span("s2", "s1", "task:a", TASK_SPAN, 1.0, 5.0,
             machine="worker0", queue_wait=1.0),
        span("s3", "s1", "task:b", TASK_SPAN, 5.0, 9.0,
             machine="worker0"),
        span("s4", "s1", "task:c", TASK_SPAN, 2.0, 8.0,
             machine="worker1"),
    ]


class TestTimeline:
    def test_renders_one_lane_per_worker(self):
        text = render_timeline(lane_fixture(), width=20)
        lines = text.splitlines()
        assert "2 lane(s), 3 task(s)" in lines[0]
        assert "(flow f)" in lines[0]
        lanes = [line for line in lines if "|" in line]
        assert len(lanes) == 2
        assert lanes[0].lstrip().startswith("worker0")
        assert lanes[1].lstrip().startswith("worker1")

    def test_busy_shares_use_interval_union(self):
        # worker0 executes 1..5 and 5..9 = 8 of 10 wall seconds
        text = render_timeline(lane_fixture(), width=20)
        worker0 = next(line for line in text.splitlines()
                       if "worker0" in line)
        assert "busy  80%" in worker0
        assert "wait  10%" in worker0

    def test_overlapping_tasks_do_not_double_count(self):
        spans = lane_fixture()
        # a batched twin sharing task:a's dispatch window
        spans.append(Span("t1", "s5", "s1", "task:d", TASK_SPAN,
                          1.0, 5.0, attributes={"machine": "worker0"}))
        text = render_timeline(spans, width=20)
        worker0 = next(line for line in text.splitlines()
                       if "worker0" in line)
        assert "busy  80%" in worker0  # union, not 120%

    def test_queue_wait_and_error_marks(self):
        spans = lane_fixture()
        spans[2].status = "error:ToolError"
        text = render_timeline(spans, width=20)
        worker0 = next(line for line in text.splitlines()
                       if "worker0" in line)
        assert "~" in worker0 and "!" in worker0

    def test_natural_lane_order(self):
        spans = [Span("t1", "r", None, "run:f", RUN_SPAN, 0.0, 4.0)]
        for index, lane in enumerate(("worker10", "worker2")):
            spans.append(Span("t1", f"s{index}", "r", "task:x",
                              TASK_SPAN, 1.0, 3.0,
                              attributes={"machine": lane}))
        lanes = [line.split("|")[0].strip()
                 for line in render_timeline(spans).splitlines()
                 if "|" in line]
        assert lanes == ["worker2", "worker10"]

    def test_rejects_absurd_width(self):
        with pytest.raises(ObservabilityError):
            render_timeline(lane_fixture(), width=5)

    def test_no_task_spans(self):
        spans = [Span("t1", "r", None, "run:f", RUN_SPAN, 0.0, 1.0)]
        assert "no task spans" in render_timeline(spans)

    def test_timeline_cli_renders_procpool_trace(self, tmp_path,
                                                 capsys):
        env = fan_env()
        from repro.obs import JSONLSink
        sink = JSONLSink(tmp_path / "trace.jsonl")
        env.tracer.subscribe(sink)
        env.process_executor(workers=2).execute(fan_flow(env))
        sink.close()
        assert main(["trace", "timeline", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "worker0" in output and "worker1" in output
        assert "legend" in output


# ---------------------------------------------------------------------------
# --follow: incremental tail of a JSONL log
# ---------------------------------------------------------------------------
class TestFollow:
    def test_yields_appended_objects_across_polls(self, tmp_path):
        log = tmp_path / "events.jsonl"
        log.write_text('{"a": 1}\n', encoding="utf-8")
        polls = {"count": 0}

        def fake_sleep(_interval):
            polls["count"] += 1
            if polls["count"] == 1:
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write('{"a": 2}\n')

        seen = []
        for lineno, spec in JSONLReader(log).follow(
                sleep=fake_sleep, stop=lambda: polls["count"] >= 2):
            seen.append((lineno, spec))
        assert seen == [(1, {"a": 1}), (2, {"a": 2})]

    def test_partial_line_buffered_until_newline(self, tmp_path):
        log = tmp_path / "events.jsonl"
        log.write_text('{"a"', encoding="utf-8")  # torn write
        polls = {"count": 0}

        def fake_sleep(_interval):
            polls["count"] += 1
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(': 1}\n')

        seen = list(JSONLReader(log).follow(
            sleep=fake_sleep, stop=lambda: polls["count"] >= 1))
        assert seen == [(1, {"a": 1})]

    def test_terminated_corrupt_line_raises(self, tmp_path):
        log = tmp_path / "events.jsonl"
        log.write_text('not json\n', encoding="utf-8")
        with pytest.raises(ObservabilityError, match="corrupt"):
            list(JSONLReader(log).follow(sleep=lambda _: None,
                                         stop=lambda: True))

    def test_non_object_line_raises(self, tmp_path):
        log = tmp_path / "events.jsonl"
        log.write_text('[1, 2]\n', encoding="utf-8")
        with pytest.raises(ObservabilityError, match="JSON object"):
            list(JSONLReader(log).follow(sleep=lambda _: None,
                                         stop=lambda: True))

    def test_waits_for_missing_file(self, tmp_path):
        log = tmp_path / "later.jsonl"
        polls = {"count": 0}

        def fake_sleep(_interval):
            polls["count"] += 1
            if polls["count"] == 2:
                log.write_text('{"a": 1}\n', encoding="utf-8")

        seen = list(JSONLReader(log).follow(
            sleep=fake_sleep, stop=lambda: polls["count"] >= 3))
        assert seen == [(1, {"a": 1})]

    def test_truncation_restarts_from_top(self, tmp_path):
        log = tmp_path / "events.jsonl"
        log.write_text('{"a": 1}\n{"a": 2}\n', encoding="utf-8")
        polls = {"count": 0}

        def fake_sleep(_interval):
            polls["count"] += 1
            if polls["count"] == 1:
                log.write_text('{"b": 1}\n', encoding="utf-8")

        seen = list(JSONLReader(log).follow(
            sleep=fake_sleep, stop=lambda: polls["count"] >= 2))
        assert seen == [(1, {"a": 1}), (2, {"a": 2}), (1, {"b": 1})]

    def test_events_cli_follow(self, tmp_path, capsys):
        env = fan_env()
        from repro.obs import JSONLSink
        log = tmp_path / "events.jsonl"
        env.bus.subscribe(JSONLSink(log))
        env.process_executor(workers=2).execute(fan_flow(env))
        code = main(["events", str(log), "--follow",
                     "--duration", "0.2", "--poll", "0.05",
                     "--type", "worker_stats"])
        assert code == 0
        output = capsys.readouterr().out
        assert "worker_stats" in output
        assert "worker0" in output

    def test_events_cli_follow_conflicts(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text("", encoding="utf-8")
        assert main(["events", str(log), "--follow",
                     "--replay"]) == 2
        assert main(["events", str(log), "--follow",
                     "--tail", "3"]) == 2
        assert main(["events", str(log), "--follow",
                     "--poll", "0"]) == 2


# ---------------------------------------------------------------------------
# ledger: optional workers field, back-compat, Prometheus export
# ---------------------------------------------------------------------------
def make_record(run_id: str, workers=None, wall=2.0, executor="procpool",
                errors=0) -> RunRecord:
    return RunRecord(run_id=run_id, timestamp=float(len(run_id)),
                     flow="f", executor=executor, cache_policy="off",
                     wall_time=wall, runs=4, errors=errors,
                     workers=dict(workers or {}))


class TestLedgerWorkers:
    def test_round_trip_preserves_workers(self):
        record = make_record("r1", {
            "worker0": WorkerRunStats(batches=1, invocations=2,
                                      busy_time=1.0, idle_time=1.0),
            "worker1": WorkerRunStats(batches=2, invocations=2,
                                      steals=1, busy_time=0.5,
                                      idle_time=1.5, rss_kb=1024)})
        loaded = RunRecord.from_dict(record.to_dict())
        assert loaded.workers == record.workers
        assert loaded.worker_utilization \
            == pytest.approx(1.5 / (2 * 2.0))

    def test_workers_omitted_from_wire_when_empty(self):
        spec = make_record("r1").to_dict()
        assert "workers" not in spec

    def test_old_ledger_line_loads_without_workers(self):
        spec = make_record("r1").to_dict()
        spec.pop("workers", None)
        loaded = RunRecord.from_dict(spec)
        assert loaded.workers == {}
        assert loaded.worker_utilization == 0.0

    def test_render_includes_worker_summary(self):
        record = make_record(
            "r1", {"worker0": WorkerRunStats(busy_time=1.0)})
        assert "workers=1" in record.render()

    def test_prometheus_export_has_worker_series(self):
        from repro.obs import render_prometheus_ledger
        records = (make_record("r1", {
            "worker0": WorkerRunStats(invocations=2, busy_time=1.0,
                                      idle_time=1.0, steals=1,
                                      respawns=1, rss_kb=512)}),)
        text = render_prometheus_ledger(records)
        assert "_run_worker_utilization" in text
        assert 'worker="worker0"' in text
        assert "_run_worker_steals_total 1" in text
        assert "_run_worker_respawns_total 1" in text


# ---------------------------------------------------------------------------
# the worker-utilization health check
# ---------------------------------------------------------------------------
def balanced(busy: float) -> dict:
    return {"worker0": WorkerRunStats(busy_time=busy, invocations=2),
            "worker1": WorkerRunStats(busy_time=busy, invocations=2)}


class TestWorkerUtilizationHealth:
    thresholds = HealthThresholds(min_samples=2)

    def test_ok_without_worker_telemetry(self):
        result = check_worker_utilization(
            make_record("r1", executor="sequential"), (),
            self.thresholds)
        assert result.verdict == OK
        assert "no worker telemetry" in result.detail

    def test_ok_when_balanced_and_no_baseline(self):
        result = check_worker_utilization(
            make_record("r1", balanced(1.0)), (), self.thresholds)
        assert result.verdict == OK
        assert "utilization" in result.detail

    def test_fails_on_gross_imbalance(self):
        # one of four workers did all the work: imbalance 4.0x
        skewed = {"worker0": WorkerRunStats(busy_time=2.0),
                  "worker1": WorkerRunStats(busy_time=0.0),
                  "worker2": WorkerRunStats(busy_time=0.0),
                  "worker3": WorkerRunStats(busy_time=0.0)}
        result = check_worker_utilization(
            make_record("r1", skewed), (), self.thresholds)
        assert result.verdict == FAIL
        assert "imbalance" in result.detail

    def test_moderate_imbalance_warns(self):
        skewed = {"worker0": WorkerRunStats(busy_time=1.5),
                  "worker1": WorkerRunStats(busy_time=0.2),
                  "worker2": WorkerRunStats(busy_time=0.2),
                  "worker3": WorkerRunStats(busy_time=0.1)}
        result = check_worker_utilization(
            make_record("r1", skewed), (), self.thresholds)
        assert result.verdict == WARN

    def test_light_load_never_gates_imbalance(self):
        skewed = {"worker0": WorkerRunStats(busy_time=0.010),
                  "worker1": WorkerRunStats(busy_time=0.000)}
        result = check_worker_utilization(
            make_record("r1", skewed), (), self.thresholds)
        assert result.verdict == OK

    def test_utilization_collapse_vs_baseline_fails(self):
        baseline = tuple(make_record(f"r{i}", balanced(1.0))
                         for i in range(3))
        current = make_record("r9", balanced(0.2))
        result = check_worker_utilization(current, baseline,
                                          self.thresholds)
        assert result.verdict == FAIL
        assert "collapsed" in result.detail

    def test_mild_drop_warns(self):
        baseline = tuple(make_record(f"r{i}", balanced(1.0))
                         for i in range(3))
        current = make_record("r9", balanced(0.7))
        result = check_worker_utilization(current, baseline,
                                          self.thresholds)
        assert result.verdict == WARN

    def test_other_executor_baselines_ignored(self):
        baseline = tuple(make_record(f"r{i}", balanced(1.0),
                                     executor="scheduled")
                         for i in range(3))
        current = make_record("r9", balanced(0.2))
        result = check_worker_utilization(current, baseline,
                                          self.thresholds)
        assert result.verdict == OK

    def test_check_registered_in_full_report(self):
        report = evaluate_health(
            [make_record("r1", balanced(1.0))],
            thresholds=self.thresholds)
        assert "worker-utilization" in {c.name for c in report.checks}
        assert report.exit_code == 0


# ---------------------------------------------------------------------------
# metrics: WORKER_STATS events feed per-worker series
# ---------------------------------------------------------------------------
class TestWorkerMetrics:
    def worker_event(self, seq: int, machine: str, **payload) -> Event:
        return Event(seq=seq, event_type=WORKER_STATS, timestamp=1.0,
                     flow="f", machine=machine, duration=1.5,
                     payload=tuple(sorted(payload.items())))

    def test_counters_and_gauges(self):
        metrics = MetricsRegistry()
        metrics.handle(self.worker_event(
            1, "worker0", batches=2, invocations=4, steals=1,
            busy=1.5, idle=0.5, utilization=0.75))
        metrics.handle(self.worker_event(
            2, "worker1", batches=1, invocations=2, respawns=1,
            busy=0.5, idle=1.5, utilization=0.25))
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["worker.worker0.invocations"] == 4
        assert snapshot["counters"]["workers.invocations"] == 6
        assert snapshot["counters"]["workers.steals"] == 1
        assert snapshot["counters"]["workers.respawns"] == 1
        assert snapshot["gauges"]["worker.worker0.busy_seconds"] == 1.5
        assert snapshot["gauges"]["worker.worker1.utilization"] == 0.25

    def test_render_lists_worker_section(self):
        metrics = MetricsRegistry()
        metrics.handle(self.worker_event(
            1, "worker0", batches=1, invocations=2, busy=1.0,
            idle=1.0, utilization=0.5))
        text = metrics.render()
        assert "workers:" in text
        assert "worker0" in text


# ---------------------------------------------------------------------------
# stats CLI: the per-worker section
# ---------------------------------------------------------------------------
class TestStatsCli:
    def test_stats_shows_worker_counters(self, tmp_path, capsys):
        from repro.persistence import save_environment
        env = fan_env()
        save_environment(env, tmp_path)
        env.ledger = RunLedger(tmp_path / "ledger.jsonl")
        env.process_executor(workers=2).execute(fan_flow(env))
        assert main(["stats", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "workers (latest run): 2 worker(s)" in output
        assert "steals=" in output and "respawns=" in output
        assert "worker0:" in output and "worker1:" in output
