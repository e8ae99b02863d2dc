"""SCALE-1: framework cost as the methodology grows.

Supplementary to the paper's claims: dynamically defined flows must stay
cheap as schemas and flows grow, since the designer builds them
interactively.  Synthetic pipeline methodologies of N stages (Tool_i
producing Data_i from Data_{i-1}) measure schema construction, full
backward expansion from the goal, end-to-end execution with no-op tools,
and the automatic-sequencing overhead per invocation.  Each size is
timed as the best of three builds, and from 128 to 1,024 stages schema
construction and expansion may grow at most 2.5x per doubling and the
per-invocation overhead at most 2x.
"""

import time

from repro.execution import DesignEnvironment, encapsulation
from repro.schema.builder import SchemaBuilder

STAGES = (8, 32, 128, 256, 512, 1024)
#: the growth gate's smallest and largest size (three doublings)
GATE = (128, 1024)
#: builds per size; each timing is the best of them
BUILDS = 3


def pipeline_schema(stages: int):
    builder = SchemaBuilder(f"pipe{stages}")
    builder.data("Data0")
    for index in range(1, stages + 1):
        builder.tool(f"Tool{index}")
        builder.data(f"Data{index}")
        builder.produced_by(f"Data{index}", f"Tool{index}",
                            inputs=[("src", f"Data{index - 1}")])
    return builder.build()


def build_and_run(stages: int) -> dict[str, float]:
    timings: dict[str, float] = {}
    started = time.perf_counter()
    schema = pipeline_schema(stages)
    timings["schema_ms"] = (time.perf_counter() - started) * 1e3

    env = DesignEnvironment(schema, user="scale")
    noop = encapsulation("noop", lambda ctx, ins: {"stage": True})
    tools = {}
    for index in range(1, stages + 1):
        tools[index] = env.install_tool(f"Tool{index}", None,
                                        name=f"t{index}")
    env.registry.register("Tool1", noop)  # shared: resolution walks up?
    # no subtype chain here: register for each type (cheap, code-only)
    for index in range(2, stages + 1):
        env.registry.register(f"Tool{index}", noop)
    source = env.install_data("Data0", {"seed": True})

    started = time.perf_counter()
    flow, goal = env.goal_flow(f"Data{stages}")
    flow.expand_fully(goal, max_depth=stages + 2)
    timings["expand_ms"] = (time.perf_counter() - started) * 1e3
    assert len(flow.nodes()) == 2 * stages + 1

    flow.bind(flow.sole_node_of_type("Data0"), source.instance_id)
    for index in range(1, stages + 1):
        flow.bind(flow.sole_node_of_type(f"Tool{index}"),
                  tools[index].instance_id)
    started = time.perf_counter()
    report = env.run(flow)
    timings["execute_ms"] = (time.perf_counter() - started) * 1e3
    assert len(report.results) == stages
    timings["per_invocation_us"] = timings["execute_ms"] / stages * 1e3

    from repro.history import backward_trace

    started = time.perf_counter()
    trace = backward_trace(env.db, goal.produced[0])
    timings["trace_ms"] = (time.perf_counter() - started) * 1e3
    assert len(trace) == 2 * stages + 1
    return timings


def best_of_builds(stages: int) -> dict[str, float]:
    builds = [build_and_run(stages) for _ in range(BUILDS)]
    return {key: min(build[key] for build in builds) for key in builds[0]}


def test_bench_scale_pipeline(benchmark, write_artifact):
    rows = ["SCALE-1: cost vs methodology size (N-stage pipeline, "
            f"best of {BUILDS} builds)",
            f"{'stages':>7} {'schema ms':>10} {'expand ms':>10} "
            f"{'execute ms':>11} {'us/invoc':>9} {'trace ms':>9}"]
    results = {}
    for stages in STAGES:
        timings = best_of_builds(stages)
        results[stages] = timings
        rows.append(
            f"{stages:>7} {timings['schema_ms']:>10.2f} "
            f"{timings['expand_ms']:>10.2f} "
            f"{timings['execute_ms']:>11.2f} "
            f"{timings['per_invocation_us']:>9.0f} "
            f"{timings['trace_ms']:>9.2f}")
    # the per-invocation overhead must not blow up with depth
    small = results[STAGES[0]]["per_invocation_us"]
    large = results[STAGES[-1]]["per_invocation_us"]
    rows.append("")
    rows.append(f"per-invocation overhead growth "
                f"{STAGES[0]} -> {STAGES[-1]} stages: "
                f"{large / small:.1f}x")
    assert large / small < 30  # far from quadratic blow-up per stage
    # linear work grows 8x over three doublings: allow 2.5x per doubling
    # for schema construction and expansion, 2x in all for the
    # per-invocation overhead
    low, high = (results[stages] for stages in GATE)
    growth = {
        key: high[key] / low[key]
        for key in ("schema_ms", "expand_ms", "per_invocation_us")
    }
    rows.append(
        f"growth {GATE[0]} -> {GATE[1]} stages: "
        + ", ".join(f"{key} {ratio:.1f}x" for key, ratio in growth.items())
    )
    write_artifact("scale_pipeline", "\n".join(rows))
    assert growth["schema_ms"] <= 2.5 ** 3
    assert growth["expand_ms"] <= 2.5 ** 3
    assert growth["per_invocation_us"] <= 2

    benchmark.pedantic(lambda: build_and_run(STAGES[0]), rounds=3,
                       iterations=1)
