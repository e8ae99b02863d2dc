"""CI gate: a traced Fig. 5 run must export a valid, stable trace.

Runs the Fig. 5 complex flow once with span tracing enabled and fails
(exit 1) when:

* the recorded spans fail structural validation (duplicate ids,
  dangling parents, multiple roots, bad intervals);
* the Chrome trace-event export does not pass the minimal schema
  check (:func:`repro.obs.validate_chrome_trace`), i.e. would not
  load in Perfetto;
* the critical path drifts structurally from the checked-in baseline
  in ``benchmarks/artifacts/trace_baseline.json`` — the chain of tool
  types is compared exactly (a different longest chain means the
  executed task graph or the analysis changed), span counts per kind
  within a tolerance.

Timing numbers (wall, busy, parallelism) are printed but never gated:
counts and chain structure, not clocks, are the contract.  The chain
is still picked by span durations, and the two longest chains differ
by a fraction of a millisecond, so the traced run pauses the garbage
collector: a collection landing inside one tool span would otherwise
decide the chain.

Regenerate the baseline after an intentional structural change with::

    PYTHONPATH=src python benchmarks/check_trace_smoke.py \
        --write-baseline
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

BASELINE = (pathlib.Path(__file__).parent / "artifacts"
            / "trace_baseline.json")
COUNT_TOLERANCE = 0.25
COUNT_KEYS = ("spans_total", "run_spans", "task_spans", "tool_spans",
              "cache_spans", "compose_spans", "chrome_events")


def run_once():
    """One traced Fig. 5 execution; returns structural trace stats."""
    from conftest import fresh_env
    from test_bench_fig05_complex_flow import (build_fig5_flow,
                                               build_layout_instance)
    from repro.obs import (CACHE_SPAN, COMPOSE_SPAN, RUN_SPAN, TASK_SPAN,
                           TOOL_SPAN, RingBufferSink, critical_path,
                           export_chrome, validate_chrome_trace,
                           validate_spans)
    from repro.schema import standard as S
    from repro.tools import default_models, exhaustive, tech_map
    from repro.tools.logic import LogicSpec

    env = fresh_env()
    env.models = env.install_data(S.DEVICE_MODELS, default_models(),
                                  name="tech")
    env.stimuli_inv = env.install_data(S.STIMULI, exhaustive(("a",)),
                                       name="a-vec")
    reference = env.install_data(
        S.EDITED_NETLIST,
        tech_map(LogicSpec.from_equations("ref", "y = ~a")),
        name="ref-inv")
    layout_id = build_layout_instance(env)

    sink = RingBufferSink(512)
    env.tracer.subscribe(sink)
    flow = build_fig5_flow(env, layout_id, reference.instance_id)
    gc.collect()
    gc.disable()  # no collection pause inside a timed span
    try:
        env.run(flow)
    finally:
        gc.enable()
    env.tracer.unsubscribe(sink)

    spans = list(sink.events())
    problems = validate_spans(spans)
    chrome = export_chrome(spans)
    chrome_problems = validate_chrome_trace(chrome)
    report = critical_path(spans)
    kinds: dict[str, int] = {}
    for span in spans:
        kinds[span.kind] = kinds.get(span.kind, 0) + 1

    return {
        "spans_total": len(spans),
        "run_spans": kinds.get(RUN_SPAN, 0),
        "task_spans": kinds.get(TASK_SPAN, 0),
        "tool_spans": kinds.get(TOOL_SPAN, 0),
        "cache_spans": kinds.get(CACHE_SPAN, 0),
        "compose_spans": kinds.get(COMPOSE_SPAN, 0),
        "roots": sum(1 for s in spans if s.parent_id is None),
        "span_problems": problems,
        "chrome_events": len(chrome["traceEvents"]),
        "chrome_problems": chrome_problems,
        "critical_chain": [s.value("tool_type", "?")
                           for s in report.path],
        "critical_chain_length": len(report.path),
        "wall_elapsed": report.wall_time,
        "busy_elapsed": report.busy_time,
        "parallelism": report.parallelism,
    }


def check(stats: dict, baseline: dict | None) -> list[str]:
    failures = []
    for problem in stats["span_problems"]:
        failures.append(f"span validation: {problem}")
    for problem in stats["chrome_problems"]:
        failures.append(f"chrome export: {problem}")
    if stats["roots"] != 1:
        failures.append(
            f"expected exactly one root span, found {stats['roots']}")
    if stats["task_spans"] == 0:
        failures.append("traced run recorded no task spans")
    if baseline is not None:
        if stats["critical_chain"] != baseline["critical_chain"]:
            failures.append(
                "critical path drifted: baseline chain "
                f"{baseline['critical_chain']}, measured "
                f"{stats['critical_chain']}")
        for key in COUNT_KEYS:
            want, got = baseline[key], stats[key]
            if want and abs(got - want) / want > COUNT_TOLERANCE:
                failures.append(
                    f"{key} drifted: baseline {want}, measured {got} "
                    f"(>{COUNT_TOLERANCE:.0%} drift)")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-baseline", action="store_true",
                        help="record current numbers as the baseline")
    args = parser.parse_args(argv)
    stats = run_once()
    print(json.dumps(stats, indent=1, sort_keys=True))
    if args.write_baseline:
        BASELINE.parent.mkdir(exist_ok=True)
        recorded = {key: stats[key] for key in
                    (*COUNT_KEYS, "roots", "critical_chain",
                     "critical_chain_length")}
        BASELINE.write_text(json.dumps(recorded, indent=1,
                                       sort_keys=True) + "\n",
                            encoding="utf-8")
        print(f"baseline written to {BASELINE}")
        return 0
    baseline = None
    if BASELINE.exists():
        baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    else:
        print(f"warning: no baseline at {BASELINE}; structural-drift "
              "checks skipped", file=sys.stderr)
    failures = check(stats, baseline)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("trace smoke check passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
