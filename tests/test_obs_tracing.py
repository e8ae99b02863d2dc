"""Tests for hierarchical span tracing and critical-path analysis."""

import dataclasses
import json
import pathlib
import threading
import time

import pytest

from repro.cli import main
from repro.errors import ObservabilityError
from repro.obs import (CACHE_SPAN, COMPOSE_SPAN, NULL_SPAN, RUN_SPAN,
                       TASK_SPAN, TOOL_FINISHED, TOOL_SPAN, WAVE_SPAN,
                       EventBus, JSONLSink, MetricsRegistry,
                       RingBufferSink, Span, Tracer, critical_path,
                       export_chrome, read_spans, render_span_tree,
                       spans_of_trace, trace_ids, validate_chrome_trace,
                       validate_spans)
from repro.persistence import TRACE_FILE, save_environment
from repro.schema import standard as S
from repro.execution import encapsulation
from tests.conftest import build_performance_flow


@pytest.fixture
def tracer() -> Tracer:
    return Tracer()


@pytest.fixture
def sink(tracer) -> RingBufferSink:
    sink = RingBufferSink()
    tracer.subscribe(sink)
    return sink


@pytest.fixture
def traced_env(stocked_env) -> tuple:
    """Stocked environment with a span sink on its tracer."""
    sink = RingBufferSink(512)
    stocked_env.tracer.subscribe(sink)
    return stocked_env, sink


def simulate_flow(env):
    return build_performance_flow(
        env,
        netlist_id=env.netlist.instance_id,
        models_id=env.models.instance_id,
        stimuli_id=env.stimuli.instance_id,
        simulator_id=env.tools[S.SIMULATOR].instance_id)


class TestTracerCore:
    def test_disabled_tracer_yields_null_span(self, tracer):
        assert not tracer.enabled
        with tracer.span("run:f", RUN_SPAN) as span:
            assert span is NULL_SPAN
            assert span.context is None
        assert tracer.current() is None

    def test_nested_spans_share_trace_and_chain_parents(self, tracer,
                                                        sink):
        with tracer.span("run:f", RUN_SPAN) as outer:
            with tracer.span("task:t", TASK_SPAN) as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        first, second = sink.events()
        assert first.span_id == inner.span_id  # children flush first
        assert second.parent_id is None

    def test_sequential_roots_get_distinct_traces(self, tracer, sink):
        with tracer.span("run:a", RUN_SPAN):
            pass
        first_trace = tracer.last_trace_id
        with tracer.span("run:b", RUN_SPAN):
            pass
        assert tracer.last_trace_id != first_trace
        assert len(trace_ids(sink.events())) == 2

    def test_worker_inherits_only_via_activate(self, tracer, sink):
        root = tracer.start_span("run:f", RUN_SPAN)
        recorded = {}

        def worker():
            # no implicit inheritance across threads
            recorded["ambient"] = tracer.current()
            with tracer.activate(root.context):
                with tracer.span("task:t", TASK_SPAN) as child:
                    recorded["child"] = child

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=5)
        tracer.finish(root)
        assert recorded["ambient"] is None
        assert recorded["child"].parent_id == root.span_id
        assert recorded["child"].trace_id == root.trace_id

    def test_activate_none_is_noop(self, tracer):
        with tracer.activate(None):
            assert tracer.current() is None

    def test_exception_marks_span_status(self, tracer, sink):
        with pytest.raises(ValueError):
            with tracer.span("task:t", TASK_SPAN):
                raise ValueError("boom")
        (span,) = sink.events()
        assert span.status == "error:ValueError"
        assert span.end >= span.start

    def test_unknown_kind_rejected(self, tracer, sink):
        with pytest.raises(ObservabilityError):
            tracer.start_span("x", "nonsense")

    def test_sink_without_handle_rejected(self, tracer):
        with pytest.raises(ObservabilityError):
            tracer.subscribe(object())

    def test_unsubscribe_restores_fast_path(self, tracer, sink):
        tracer.unsubscribe(sink)
        assert not tracer.enabled
        with tracer.span("run:f", RUN_SPAN) as span:
            assert span is NULL_SPAN


class TestSpanPersistence:
    def _write(self, tracer, path):
        jsonl = JSONLSink(path)
        tracer.subscribe(jsonl)
        with tracer.span("run:f", RUN_SPAN, attributes={"flow": "f"}):
            with tracer.span("task:t", TASK_SPAN):
                pass
        jsonl.close()

    def test_jsonl_round_trip(self, tracer, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._write(tracer, path)
        spans = read_spans(path)
        assert [s.kind for s in spans] == [TASK_SPAN, RUN_SPAN]
        assert spans[1].value("flow") == "f"
        assert spans[0].to_dict() == Span.from_dict(
            spans[0].to_dict()).to_dict()

    def test_corrupt_trailing_line_tolerated_leniently(self, tracer,
                                                       tmp_path):
        path = tmp_path / "trace.jsonl"
        self._write(tracer, path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"truncated mid-wri')
        assert len(read_spans(path, strict=False)) == 2
        with pytest.raises(ObservabilityError):
            read_spans(path)

    def test_mid_file_corruption_always_rejected(self, tracer,
                                                 tmp_path):
        path = tmp_path / "trace.jsonl"
        self._write(tracer, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("garbage\n" + "\n".join(lines) + "\n",
                        encoding="utf-8")
        with pytest.raises(ObservabilityError):
            read_spans(path, strict=False)

    def test_foreign_schema_version_rejected(self):
        spec = {"schema_version": "other.v1", "trace_id": "t",
                "span_id": "s1"}
        with pytest.raises(ObservabilityError):
            Span.from_dict(spec)


class TestValidation:
    def _span(self, span_id, parent=None, *, kind=TASK_SPAN,
              start=0.0, end=1.0):
        return Span(trace_id="t1", span_id=span_id, parent_id=parent,
                    name=span_id, kind=kind, start=start, end=end)

    def test_clean_tree_validates(self):
        spans = [self._span("s1", kind=RUN_SPAN),
                 self._span("s2", "s1")]
        assert validate_spans(spans) == []

    def test_structural_problems_reported(self):
        spans = [
            self._span("s1", kind=RUN_SPAN),
            self._span("s1", kind=RUN_SPAN),        # duplicate + 2 roots
            self._span("s2", "missing"),             # dangling parent
            self._span("s3", "s1", start=2.0, end=1.0),
        ]
        spans.append(Span(trace_id="t1", span_id="s4", parent_id="s1",
                          name="x", kind="nonsense", start=0, end=1))
        problems = "\n".join(validate_spans(spans))
        assert "duplicate span id s1" in problems
        assert "expected exactly one root" in problems
        assert "unknown parent missing" in problems
        assert "ends before it starts" in problems
        assert "unknown kind" in problems

    def test_chrome_validator_catches_unmatched_pairs(self):
        good = {"traceEvents": [
            {"ph": "B", "pid": 1, "tid": 0, "ts": 0, "name": "a"},
            {"ph": "E", "pid": 1, "tid": 0, "ts": 5},
        ]}
        assert validate_chrome_trace(good) == []
        bad = {"traceEvents": [
            {"ph": "E", "pid": 1, "tid": 0, "ts": 5},
            {"ph": "B", "pid": 1, "tid": 1, "ts": 0, "name": "open"},
            {"ph": "Z", "pid": 1, "tid": 0, "ts": 0},
            {"ph": "X", "pid": 1, "tid": 0, "ts": -3, "dur": 1,
             "name": "n"},
        ]}
        problems = "\n".join(validate_chrome_trace(bad))
        assert "E without matching B" in problems
        assert "unclosed B event 'open'" in problems
        assert "unsupported phase" in problems
        assert "invalid ts" in problems

    def test_not_a_trace_rejected(self):
        assert validate_chrome_trace({}) == \
            ["traceEvents missing or not a list"]


class TestSequentialExecutorTracing:
    def test_run_produces_valid_span_tree(self, traced_env):
        env, sink = traced_env
        flow, goal = simulate_flow(env)
        report = env.run(flow)
        spans = list(sink.events())
        assert validate_spans(spans) == []
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1 and roots[0].kind == RUN_SPAN
        assert roots[0].value("flow") == flow.name
        tasks = [s for s in spans if s.kind == TASK_SPAN]
        assert len(tasks) == len(report.results)
        assert all(t.parent_id == roots[0].span_id for t in tasks)
        # leaves hang off their task, and the composed Circuit shows up
        by_id = {s.span_id: s for s in spans}
        leaves = [s for s in spans
                  if s.kind in (TOOL_SPAN, COMPOSE_SPAN)]
        assert leaves
        assert all(by_id[s.parent_id].kind == TASK_SPAN for s in leaves)
        assert any(s.kind == COMPOSE_SPAN for s in spans)

    def test_task_spans_carry_graph_structure(self, traced_env):
        env, sink = traced_env
        flow, goal = simulate_flow(env)
        env.run(flow)
        tasks = [s for s in sink.events() if s.kind == TASK_SPAN]
        produced = {n for t in tasks for n in t.value("outputs", ())}
        consumed = {n for t in tasks for n in t.value("inputs", ())}
        # the simulation consumes the composed circuit it produced
        assert produced & consumed
        assert all(t.value("machine") for t in tasks)

    def test_history_records_stamped_with_trace(self, traced_env):
        env, sink = traced_env
        flow, goal = simulate_flow(env)
        report = env.run(flow)
        spans = {s.span_id: s for s in sink.events()}
        trace = env.tracer.last_trace_id
        for instance_id in report.created:
            instance = env.db.get(instance_id)
            assert instance.trace_id == trace
            producer = spans[instance.span_id]
            assert producer.kind in (TOOL_SPAN, COMPOSE_SPAN)
            payload = instance.to_dict()
            assert payload["trace_id"] == trace

    def test_untraced_instances_round_trip_without_ids(self, env):
        instance = env.install_data(S.STIMULI, {"v": 1}, name="plain")
        payload = instance.to_dict()
        assert "trace_id" not in payload
        restored = type(instance).from_dict(payload)
        assert restored.trace_id == "" and restored.span_id == ""


class TestParallelExecutorTracing:
    def _two_branch_env_and_flow(self, schema, clock):
        from repro import DesignEnvironment
        env = DesignEnvironment(schema, user="tester", clock=clock)

        def extract(ctx, inputs):
            return {t: {"made": t} for t in ctx.output_types}

        env.install_tool(S.EXTRACTOR, encapsulation("x", extract),
                         name="x")
        flow = env.new_flow("fig6")
        for index in range(2):
            layout = env.install_data(S.EDITED_LAYOUT, {"i": index})
            netlist = flow.place(S.EXTRACTED_NETLIST)
            flow.expand(netlist)
            layouts = [n for n in flow.graph.leaves()
                       if n.entity_type == S.LAYOUT and not n.is_bound]
            flow.bind(layouts[0], layout.instance_id)
            tools = [n for n in flow.nodes()
                     if n.entity_type == S.EXTRACTOR and not n.is_bound]
            flow.bind(tools[0], env.db.latest(S.EXTRACTOR).instance_id)
        return env, flow

    def test_workers_attach_to_coordinator_root(self, schema, clock):
        env, flow = self._two_branch_env_and_flow(schema, clock)
        sink = RingBufferSink(256)
        env.tracer.subscribe(sink)
        env.parallel_executor(machines=2).execute(flow)
        spans = list(sink.events())
        assert validate_spans(spans) == []
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1
        assert roots[0].value("scheduler") == "disjoint-branches"
        branches = [s for s in spans if s.kind == WAVE_SPAN]
        assert len(branches) == 2
        assert {b.parent_id for b in branches} == {roots[0].span_id}
        assert all(b.value("machine") for b in branches)
        first, second = (set(b.value("branch")) for b in branches)
        assert first and second and not (first & second)
        branch_ids = {b.span_id for b in branches}
        tasks = [s for s in spans if s.kind == TASK_SPAN]
        assert tasks and all(t.parent_id in branch_ids for t in tasks)
        assert len({s.trace_id for s in spans}) == 1


class TestScheduledExecutorTracing:
    def test_lanes_waves_and_queue_wait(self, traced_env):
        env, sink = traced_env
        flow, goal = simulate_flow(env)
        report = env.scheduled_executor(machines=2).execute(flow)
        spans = list(sink.events())
        assert validate_spans(spans) == []
        root = next(s for s in spans if s.parent_id is None)
        assert root.value("scheduler") == "invocation-level"
        lanes = [s for s in spans if s.kind == WAVE_SPAN]
        assert lanes and all(s.parent_id == root.span_id for s in lanes)
        tasks = [s for s in spans if s.kind == TASK_SPAN]
        waves = [t.value("wave") for t in tasks]
        assert all(isinstance(w, int) for w in waves)
        assert min(waves) == 0 and max(waves) >= 1
        # queue wait is accounted separately from execute time
        assert report.queue_wait_time >= 0.0
        assert report.queue_wait_time == pytest.approx(
            sum(r.queue_wait for r in report.results))

    def test_queue_wait_reported_in_metrics(self):
        bus = EventBus()
        metrics = MetricsRegistry()
        bus.subscribe(metrics)
        bus.emit(TOOL_FINISHED, tool_type="Simulator", duration=0.5,
                 payload={"queue_wait": 0.25})
        assert metrics.timer("queue_wait").count == 1
        assert metrics.timer("tool.Simulator.queue_wait").total == 0.25
        # execute time stays unpolluted by scheduling pressure
        assert metrics.timer("tool.Simulator").total == 0.5
        assert "queue wait:" in metrics.render()


#: what every tool call of the cache-hit test takes: far more than a hit's
#: lookup, and more than one scheduler stall of the warm run
TOOL_SECONDS = 0.1


def take_fixed_time(env) -> None:
    """Re-register every tool so each call sleeps ``TOOL_SECONDS`` first."""
    for tool_type in env.registry.registered_types():
        enc = env.registry.resolve(tool_type)

        def timed(ctx, inputs, fn=enc.fn):
            time.sleep(TOOL_SECONDS)
            return fn(ctx, inputs)
        env.registry.register(tool_type, dataclasses.replace(enc, fn=timed))


class TestCacheHitSpans:
    def test_warm_run_hits_never_extend_critical_path(self, stocked_env):
        env = stocked_env
        take_fixed_time(env)
        sink = RingBufferSink(512)
        env.tracer.subscribe(sink)
        cold_flow, _ = simulate_flow(env)
        env.run(cold_flow, cache="readwrite")
        cold_trace = env.tracer.last_trace_id
        warm_flow, _ = simulate_flow(env)
        warm = env.run(warm_flow, cache="reuse")
        spans = list(sink.events())
        assert warm.cache_hits and not warm.created

        warm_spans = spans_of_trace(spans)  # latest trace
        assert warm_spans[0].trace_id != cold_trace
        tasks = [s for s in warm_spans if s.kind == TASK_SPAN]
        assert tasks and all(t.value("cache") == "hit" for t in tasks)
        assert not any(s.kind == TOOL_SPAN for s in warm_spans)
        lookups = [s for s in warm_spans if s.kind == CACHE_SPAN]
        assert lookups
        assert all(s.value("outcome") == "hit" for s in lookups)

        cold = critical_path(spans, cold_trace)
        hot = critical_path(spans)
        assert [s.value("tool_type") for s in cold.path] == \
            [s.value("tool_type") for s in hot.path]
        # hits cost only their lookup time, so the warm chain is
        # dramatically shorter than the executed one: shorter than one
        # of its tool calls
        assert cold.critical_length >= TOOL_SECONDS
        assert hot.critical_length < TOOL_SECONDS
        assert hot.critical_length < cold.critical_length
        assert hot.busy_time < cold.busy_time


class TestCriticalPathSynthetic:
    def _diamond(self):
        def task(span_id, name, start, end, inputs, outputs):
            return Span(trace_id="t1", span_id=span_id, parent_id="s0",
                        name=name, kind=TASK_SPAN, start=start, end=end,
                        attributes={"inputs": inputs,
                                    "outputs": outputs,
                                    "tool_type": name})
        return [
            Span(trace_id="t1", span_id="s0", parent_id=None,
                 name="run:d", kind=RUN_SPAN, start=0.0, end=10.0,
                 attributes={"flow": "d"}),
            task("s1", "A", 0.0, 3.0, [], ["a"]),
            task("s2", "B", 3.0, 4.0, ["a"], ["b"]),
            task("s3", "C", 3.0, 8.0, ["a"], ["c"]),
            task("s4", "D", 8.0, 10.0, ["b", "c"], ["d"]),
        ]

    def test_longest_chain_slack_and_parallelism(self):
        report = critical_path(self._diamond())
        assert [s.name for s in report.path] == ["A", "C", "D"]
        assert report.critical_length == pytest.approx(10.0)
        assert report.wall_time == pytest.approx(10.0)
        assert report.parallelism == pytest.approx(1.1)
        timing = {t.span.name: t for t in report.tasks}
        assert timing["B"].slack == pytest.approx(4.0)
        assert not timing["B"].on_path
        assert all(timing[n].slack == 0.0 for n in ("A", "C", "D"))
        rendered = report.render()
        assert "longest chain: 3 tasks" in rendered
        assert "off-path tasks by slack" in rendered

    def test_cycle_rejected(self):
        spans = self._diamond()[:1] + [
            Span(trace_id="t1", span_id="s1", parent_id="s0", name="A",
                 kind=TASK_SPAN, start=0, end=1,
                 attributes={"inputs": ["b"], "outputs": ["a"]}),
            Span(trace_id="t1", span_id="s2", parent_id="s0", name="B",
                 kind=TASK_SPAN, start=1, end=2,
                 attributes={"inputs": ["a"], "outputs": ["b"]}),
        ]
        with pytest.raises(ObservabilityError):
            critical_path(spans)

    def test_no_spans_rejected(self):
        with pytest.raises(ObservabilityError):
            critical_path([])


class TestChromeExport:
    def test_spans_become_complete_events_with_lanes(self):
        spans = [
            Span(trace_id="t1", span_id="s0", parent_id=None,
                 name="run:f", kind=RUN_SPAN, start=1.0, end=2.0),
            Span(trace_id="t1", span_id="s1", parent_id="s0",
                 name="task:x", kind=TASK_SPAN, start=1.1, end=1.5,
                 attributes={"machine": "m0"}),
            Span(trace_id="t1", span_id="s2", parent_id="s1",
                 name="tool:T", kind=TOOL_SPAN, start=1.2, end=1.4),
        ]
        payload = export_chrome(spans)
        assert validate_chrome_trace(payload) == []
        complete = [e for e in payload["traceEvents"]
                    if e["ph"] == "X"]
        assert len(complete) == 3
        run_event = next(e for e in complete if e["name"] == "run:f")
        assert run_event["ts"] == 0.0
        assert run_event["dur"] == pytest.approx(1e6)
        lanes = {e["args"]["name"] for e in payload["traceEvents"]
                 if e.get("name") == "thread_name"}
        assert lanes == {"flow", "m0"}
        # the leaf inherits its task's machine lane
        tool_event = next(e for e in complete if e["name"] == "tool:T")
        task_event = next(e for e in complete if e["name"] == "task:x")
        assert tool_event["tid"] == task_event["tid"]
        assert payload["otherData"]["trace_id"] == "t1"

    def test_render_span_tree_indents_children(self):
        spans = [
            Span(trace_id="t1", span_id="s0", parent_id=None,
                 name="run:f", kind=RUN_SPAN, start=0, end=2),
            Span(trace_id="t1", span_id="s1", parent_id="s0",
                 name="task:x", kind=TASK_SPAN, start=0, end=1),
        ]
        tree = render_span_tree(spans)
        lines = tree.splitlines()
        assert lines[0].startswith("trace t1: 2 spans")
        assert lines[1].startswith("  run:f")
        assert lines[2].startswith("    task:x")


class TestTraceCli:
    def run(self, *argv: str) -> int:
        return main(list(argv))

    @pytest.fixture
    def project(self, stocked_env, tmp_path):
        env = stocked_env
        flow, goal = simulate_flow(env)
        env.save_flow("simulate", flow, "standard simulation")
        directory = tmp_path / "proj"
        save_environment(env, directory)
        return str(directory)

    @pytest.fixture
    def traced_project(self, project, capsys):
        assert self.run("run", project, "simulate", "--trace") == 0
        out = capsys.readouterr().out
        assert "trace " in out and TRACE_FILE in out
        assert (pathlib.Path(project) / TRACE_FILE).exists()
        return project

    def test_trace_show_prints_tree(self, traced_project, capsys):
        assert self.run("trace", "show", traced_project) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace ")
        assert "run:simulate" in out

    def test_trace_critical_path(self, traced_project, capsys):
        assert self.run("trace", "critical-path", traced_project) == 0
        out = capsys.readouterr().out
        assert "critical path for trace" in out
        assert "longest chain" in out
        assert "Simulator" in out

    def test_trace_export_writes_valid_chrome_json(self, traced_project,
                                                   tmp_path, capsys):
        target = tmp_path / "trace.json"
        assert self.run("trace", "export", traced_project,
                        "-o", str(target)) == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert validate_chrome_trace(payload) == []
        assert any(e.get("ph") == "X" for e in payload["traceEvents"])
        capsys.readouterr()
        # stdout variant parses too
        assert self.run("trace", "export", traced_project) == 0
        json.loads(capsys.readouterr().out)

    def test_trace_on_missing_log_fails_cleanly(self, project, capsys):
        assert self.run("trace", "show", project) == 2
        assert "error" in capsys.readouterr().err

    def test_history_joins_producing_span(self, traced_project, capsys):
        from repro.persistence import load_environment
        env = load_environment(traced_project)
        perf = env.db.browse(S.PERFORMANCE)[-1]
        assert perf.trace_id
        capsys.readouterr()
        assert self.run("history", traced_project,
                        perf.instance_id) == 0
        out = capsys.readouterr().out
        assert f"produced by span {perf.span_id} of trace " \
            f"{perf.trace_id}" in out
        assert "within task:" in out

    def test_events_since_filters_and_tolerates_corrupt_tail(
            self, tmp_path, capsys):
        from repro.obs import FLOW_FINISHED, FLOW_STARTED
        times = iter([10.0, 20.0, 30.0])
        bus = EventBus(clock=lambda: next(times))
        log = tmp_path / "events.jsonl"
        jsonl = JSONLSink(log)
        bus.subscribe(jsonl)
        bus.emit(FLOW_STARTED, flow="f")
        bus.emit(TOOL_FINISHED, flow="f", tool_type="Simulator")
        bus.emit(FLOW_FINISHED, flow="f")
        jsonl.close()
        assert self.run("events", str(log), "--since", "15") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2
        with open(log, "a", encoding="utf-8") as handle:
            handle.write('{"cut off')
        assert self.run("events", str(log), "--since", "25") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and "flow_finished" in out[0]


class TestCiTraceSmoke:
    def test_workflow_has_trace_smoke_job(self):
        yaml = pytest.importorskip("yaml")
        workflow = pathlib.Path(__file__).parent.parent / ".github" \
            / "workflows" / "ci.yml"
        doc = yaml.safe_load(workflow.read_text(encoding="utf-8"))
        job = doc["jobs"]["trace-smoke"]
        runs = [step.get("run", "") for step in job["steps"]]
        assert any("benchmarks/check_trace_smoke.py" in r for r in runs)

    def test_baseline_checked_in_and_structural(self):
        baseline = pathlib.Path(__file__).parent.parent / "benchmarks" \
            / "artifacts" / "trace_baseline.json"
        recorded = json.loads(baseline.read_text(encoding="utf-8"))
        assert recorded["critical_chain"] == \
            ["Extractor", "@compose", "Simulator", "Plotter"]
        assert recorded["roots"] == 1
        assert not any(key.endswith("_elapsed") for key in recorded)
