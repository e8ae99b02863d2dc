"""One execution core behind the four executor presets.

Every preset drives the same run lifecycle: readiness is checked before
any tool runs, each ``execute()`` emits exactly one ``flow_started`` and
one ``flow_finished`` (or ``execution_failed``), and each appends
exactly one ledger record — on the error path too.  The shared ready
queue must release every invocation exactly once however many lanes
drain it, and the inline sequential lane keeps the flow's topological
order.
"""

import sys
import threading

import pytest

from repro.errors import ExecutionError
from repro.execution import (DerivationCache, FaultPlan, FlowExecutor,
                             ParallelFlowExecutor, ProcessFlowExecutor,
                             ResiliencePolicy, ScheduledFlowExecutor)
from repro.obs import (EventBus, MetricsRegistry, RunLedger,
                       SamplingProfiler, Tracer)
from repro.scenarios import (MAIN_FLOW, ScenarioSpec, expected_signature,
                             history_signature, materialize_scenario,
                             scenario_nodes)

PRESETS = ("sequential", "parallel", "scheduled", "procpool")


def preset_executor(env, preset):
    if preset == "parallel":
        return env.parallel_executor(machines=2)
    if preset == "scheduled":
        return env.scheduled_executor(machines=2)
    if preset == "procpool":
        return env.process_executor(workers=2)
    return env.executor()


def independent_env():
    """Four disjoint single-invocation branches (corpus shape)."""
    return materialize_scenario(
        ScenarioSpec("core", "independent", 7, 4, 1, 2))


@pytest.fixture
def observed(tmp_path):
    env = independent_env()
    env.attach_ledger(tmp_path / "ledger.jsonl")
    metrics = MetricsRegistry()
    env.bus.subscribe(metrics)
    return env, metrics


def flow_counts(metrics):
    return (metrics.counter("flows.started"),
            metrics.counter("flows.finished"),
            metrics.counter("failures"))


@pytest.mark.parametrize("preset", PRESETS)
class TestRunLifecycle:
    def test_one_flow_event_pair_and_one_record(self, observed, preset):
        env, metrics = observed
        report = preset_executor(env, preset).execute(
            env.flow_catalog.select(MAIN_FLOW))
        assert report.runs == 4
        assert flow_counts(metrics) == (1, 1, 0)
        records = env.ledger.records()
        assert len(records) == 1
        assert records[0].runs == 4 and not records[0].errors

    def test_unready_flow_fails_before_any_tool_runs(self, observed,
                                                     preset):
        env, metrics = observed
        flow = env.flow_catalog.select(MAIN_FLOW)
        tools = {entity.name for entity in env.schema.tools()}
        source = next(node for node in flow.nodes()
                      if node.is_bound and node.entity_type not in tools)
        source.unbind()
        instances = len(env.db)
        with pytest.raises(ExecutionError, match="not ready"):
            preset_executor(env, preset).execute(flow)
        assert len(env.db) == instances
        assert flow_counts(metrics) == (0, 0, 0)
        records = env.ledger.records()
        assert len(records) == 1
        assert records[0].errors == 1
        assert records[0].error_class == "ExecutionError"

    def test_empty_flow_is_one_run(self, observed, preset):
        env, metrics = observed
        report = preset_executor(env, preset).execute(
            env.new_flow("empty"))
        assert not report.results
        assert flow_counts(metrics) == (1, 1, 0)
        assert len(env.ledger.records()) == 1


def test_presets_subscribe_nothing_to_the_environment_bus():
    """Duration models learn from finished reports, not bus sinks."""
    env = independent_env()
    flow = env.flow_catalog.select(MAIN_FLOW)
    for _ in range(3):
        scheduled = env.scheduled_executor()
        scheduled.execute(flow, force=True)
        process = env.process_executor()
        process.execute(flow, force=True)
    assert not env.bus.enabled
    assert scheduled.durations.observed_types()
    assert process.durations.observed_types()


@pytest.mark.parametrize("preset, shape", [("scheduled", "fork_join"),
                                           ("scheduled", "pipeline"),
                                           ("parallel", "independent")])
def test_many_lanes_run_every_invocation_exactly_once(preset, shape):
    """Lanes far outnumbering cores, switching threads constantly,
    still release every invocation once: a lost update in the shared
    ready queue would hang the run or duplicate history."""
    spec = ScenarioSpec("stress", shape, 5, 6, 4, 4)
    env = materialize_scenario(spec)
    flow = env.flow_catalog.select(MAIN_FLOW)
    executor = (env.parallel_executor(machines=16)
                if preset == "parallel"
                else env.scheduled_executor(machines=16))
    reports = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: reports.append(executor.execute(flow)))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    invocations = sum(1 for node in scenario_nodes(spec)
                      if node.tool_type is not None)
    assert len(reports[0].results) == invocations
    assert history_signature(env) == expected_signature(spec)


def test_sequential_preset_keeps_topological_order():
    """Report order (and fault-plan draw order) follow the flow's
    topological order on the inline lane."""
    env = materialize_scenario(ScenarioSpec("order", "diamond", 3, 3, 3, 3))
    flow = env.flow_catalog.select(MAIN_FLOW)
    position = {node_id: index for index, node_id
                in enumerate(flow.graph.topological_order())}
    report = env.executor().execute(flow)
    firsts = [min(position[node_id] for node_id in result.outputs_by_node)
              for result in report.results]
    assert len(firsts) > 3
    assert firsts == sorted(firsts)


#: Every setting a preset takes from the core, as FlowExecutor holds it.
SHARED_SETTINGS = ("user", "bus", "tracer", "ledger", "resilience",
                   "faults", "profiler", "cache", "cache_policy")


def setting_cases(env, tmp_path):
    cache = DerivationCache(env.db, env.registry)
    return {
        "user": {"user": "alice"},
        "bus": {"bus": EventBus()},
        "tracer": {"tracer": Tracer()},
        "ledger": {"ledger": RunLedger(tmp_path / "ledger.jsonl")},
        "resilience": {"resilience": ResiliencePolicy(retries=2)},
        "faults": {"faults": FaultPlan([], seed=3)},
        "profiler": {"profiler": SamplingProfiler(0.01)},
        # no policy: an omitted one resolves the core's way
        "cache": {"cache": cache},
        "cache_policy": {"cache": cache, "cache_policy": "reuse"},
    }


def held_settings(executor):
    return {name: getattr(executor, name) for name in SHARED_SETTINGS}


@pytest.mark.parametrize("preset", [ParallelFlowExecutor,
                                    ScheduledFlowExecutor,
                                    ProcessFlowExecutor])
class TestPresetSettings:
    """A preset declares only its own parameters; every other setting
    reaches the core under the same keyword and means the same."""

    @pytest.mark.parametrize("setting", SHARED_SETTINGS)
    def test_setting_reaches_the_core(self, preset, setting, tmp_path):
        env = independent_env()
        kwargs = setting_cases(env, tmp_path)[setting]
        core = FlowExecutor(env.db, env.registry, **kwargs)
        built = preset(env.db, env.registry, **kwargs)
        assert held_settings(built) == held_settings(core)

    def test_misspelled_setting_is_rejected(self, preset):
        env = independent_env()
        with pytest.raises(TypeError):
            preset(env.db, env.registry, cache_polcy="reuse")
