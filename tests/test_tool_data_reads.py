"""A call reads its tool instance's data only when it runs cold.

A cache hit's key uses only the digest of the tool's data, so an
all-hit ``reuse`` run reads no tool blob.  A cold call still hands its
tool body the tool instance's data, on every executor preset.
"""

from __future__ import annotations

import pytest

from repro import DesignEnvironment
from repro.execution import encapsulation
from repro.history.store import BACKEND_JSON, BACKEND_SQLITE
from repro.obs.profiling import QueryRecorder
from repro.persistence import load_environment, save_environment
from repro.scenarios import (MAIN_FLOW, ScenarioSpec, materialize_scenario,
                             register_corpus_encapsulations)
from tests.test_execution_procpool import fan_flow, fan_schema


@pytest.mark.parametrize("backend", (BACKEND_JSON, BACKEND_SQLITE))
def test_an_all_hit_run_reads_no_blob_text(backend, tmp_path):
    env = materialize_scenario(ScenarioSpec(
        "s01-diamond", "diamond", seed=2, width=2, depth=2, fanout=2))
    save_environment(env, tmp_path, backend=backend)
    env = load_environment(tmp_path)
    register_corpus_encapsulations(env)
    env.executor(cache="readwrite").execute(env.plan_flow(MAIN_FLOW))
    save_environment(env, tmp_path)
    env.db.store.close()

    env = load_environment(tmp_path)
    register_corpus_encapsulations(env)
    flow = env.plan_flow(MAIN_FLOW)
    recorder = QueryRecorder()
    env.db.store.set_query_recorder(recorder)
    try:
        report = env.executor(cache="reuse").execute(flow)
    finally:
        env.db.store.set_query_recorder(None)
        env.db.store.close()
    assert report.cache_hits == 5 and report.runs == 0
    statements = [entry["statement"]
                  for entry in recorder.snapshot().values()]
    assert statements
    assert not [statement for statement in statements
                if "canonical" in statement]


TOOL_DATA = {"salt": 7, "mode": "fast"}


def data_env() -> DesignEnvironment:
    """The procpool tests' four-branch fan, with a tool body that returns
    the tool data its context carries."""
    env = DesignEnvironment(fan_schema(), user="tester")

    def body(ctx, inputs):
        return {"tool_data": ctx.tool_data, "n": inputs["src"]["n"]}

    env.install_tool("Tool", encapsulation("data-tool", body),
                     data=TOOL_DATA, name="t0")
    for index in range(4):
        env.install_data("Spec", {"n": index}, name=f"s{index}")
    return env


PRESETS = {
    "inline": lambda env: env.executor(cache="readwrite"),
    "parallel": lambda env: env.parallel_executor(2, cache="readwrite"),
    "scheduled": lambda env: env.scheduled_executor(2, cache="readwrite"),
    "procpool": lambda env: env.process_executor(2, cache="readwrite"),
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_a_cold_call_gets_its_tool_data(preset):
    env = data_env()
    report = PRESETS[preset](env).execute(fan_flow(env))
    assert report.runs == 4
    made = [env.db.data(instance) for instance in env.db.browse("Out")]
    assert sorted(made, key=lambda data: data["n"]) == [
        {"tool_data": TOOL_DATA, "n": n} for n in range(4)]
    again = PRESETS[preset](env).execute(fan_flow(env))
    assert again.runs == 0 and again.cache_hits == 4
