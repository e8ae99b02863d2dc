"""CI gate: the derivation cache must fully coalesce a warm re-run.

Runs the Fig. 5 complex flow twice in one process with the derivation
cache enabled, then saves the environment once per history backend,
reloads it, re-registers the standard encapsulations and runs the flow
a third time.  Fails (exit 1) when:

* the warm run executes ANY tool invocation (the acceptance criterion:
  a warm re-run performs zero tool runs and returns the same ids);
* the warm run does not emit one ``cache_hit`` event per coalesced
  invocation;
* a reloaded run executes any tool invocation, does not return the
  cold run's ids, or reports no time saved (the durations ride the
  saved memo);
* on a grown history (``GROWN_RUNS`` forced ``readwrite`` runs, saved
  and reloaded) a ``reuse`` run executes any tool invocation or does
  not return the last forced run's ids;
* on an edited history (the cold run saved and reloaded, then its
  reference netlist superseded through a circuit-editor session) a
  ``reuse`` run invalidates no remembered group, or does not run
  exactly the invocations downstream of the superseded netlist while
  reusing every other one;
* on a grown, then edited history (``GROWN_RUNS`` forced runs, saved
  and reloaded, then the same edit) a ``reuse`` run does not invalidate
  exactly the ``GROWN_RUNS + 1`` remembered runs downstream of the
  superseded netlist, or does not run exactly those invocations while
  reusing every other one: the lookup must walk back through every
  stale run the memo holds for them;
* the structural numbers (cold invocations, instances created, warm
  hits) drift more than the tolerance from the checked-in baseline in
  ``benchmarks/artifacts/cache_baseline.json``;
* the warm run's wall time exceeds the cold run's by more than the
  tolerance (a very lenient sanity bound — counts, not clocks, are the
  real contract, so machine speed never flakes this check).

Regenerate the baseline after an intentional structural change with::

    PYTHONPATH=src python benchmarks/check_cache_regression.py \
        --write-baseline
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

BASELINE = (pathlib.Path(__file__).parent / "artifacts"
            / "cache_baseline.json")
TOLERANCE = 0.25


BACKENDS = ("json", "sqlite")
#: forced runs that grow the history of the grown leg
GROWN_RUNS = 8


def load_copy(env, directory):
    """Load a saved copy of ``env`` with the standard encapsulations and
    the handles the Fig. 5 flow builder reads."""
    from repro.persistence import load_environment
    from repro.tools import register_standard_encapsulations

    loaded = load_environment(directory)
    register_standard_encapsulations(loaded)
    for name in ("tools", "models", "stimuli_inv"):
        setattr(loaded, name, getattr(env, name))
    return loaded


def reload_leg(env, layout_id, reference_id, backend):
    """Save, reload and re-run the Fig. 5 flow with ``cache=reuse``."""
    from test_bench_fig05_complex_flow import build_fig5_flow
    from repro.persistence import save_environment

    with tempfile.TemporaryDirectory() as directory:
        save_environment(env, directory, backend=backend)
        reloaded = load_copy(env, directory)
        try:
            report = reloaded.run(
                build_fig5_flow(reloaded, layout_id, reference_id),
                cache="reuse")
        finally:
            reloaded.db.store.close()
    return {"invocations": len(report.results),
            "reused": sorted(report.reused),
            "time_saved": report.time_saved}


def grow(env, directory, layout_id, reference_id, backend):
    """Save ``env`` to ``directory``, add ``GROWN_RUNS`` forced
    ``readwrite`` runs of the Fig. 5 flow to a loaded copy and save it
    again; returns the last run's report."""
    from test_bench_fig05_complex_flow import build_fig5_flow
    from repro.persistence import save_environment

    save_environment(env, directory, backend=backend)
    grown = load_copy(env, directory)
    try:
        for _ in range(GROWN_RUNS):
            last = grown.run(build_fig5_flow(grown, layout_id, reference_id),
                             force=True, cache="readwrite")
        save_environment(grown, directory)
    finally:
        grown.db.store.close()
    return last


def grown_leg(env, layout_id, reference_id, backend):
    """Grow a saved copy by ``GROWN_RUNS`` forced ``readwrite`` runs,
    save, reload and re-run the Fig. 5 flow with ``cache=reuse``."""
    from test_bench_fig05_complex_flow import build_fig5_flow

    with tempfile.TemporaryDirectory() as directory:
        last = grow(env, directory, layout_id, reference_id, backend)
        reloaded = load_copy(env, directory)
        try:
            report = reloaded.run(
                build_fig5_flow(reloaded, layout_id, reference_id),
                cache="reuse")
        finally:
            reloaded.db.store.close()
    return {"invocations": len(report.results),
            "hits": report.cache_hits,
            "same_ids": sorted(report.reused) == sorted(last.created)}


#: tool types of the Fig. 5 invocations downstream of its reference
#: netlist
DOWNSTREAM_OF_REFERENCE = ["Verifier"]


def edit_and_reuse(env, directory, layout_id, reference_id):
    """Load the copy of ``env`` saved in ``directory``, supersede the
    reference netlist through an editing task and re-run the Fig. 5
    flow with ``cache=reuse``."""
    from test_bench_fig05_complex_flow import build_fig5_flow
    from repro.schema import standard as S
    from repro.tools import edit_session

    edited = load_copy(env, directory)
    try:
        session = edit_session(edited, S.CIRCUIT_EDITOR, [
            {"op": "rename", "name": "ref-inv-v2"}], name="ref-fix")
        flow, goal = edited.goal_flow(S.EDITED_NETLIST)
        flow.expand(goal, include_optional=["previous"])
        previous = flow.graph.data_suppliers(goal.node_id)["previous"]
        flow.bind(flow.node(previous), reference_id)
        flow.bind(flow.sole_node_of_type(S.CIRCUIT_EDITOR),
                  session.instance_id)
        edited.run(flow)
        report = edited.run(
            build_fig5_flow(edited, layout_id, reference_id),
            cache="reuse")
        invalidated = edited.cache.stats.invalidated
    finally:
        edited.db.store.close()
    return {"ran": sorted(r.tool_type for r in report.results),
            "hits": report.cache_hits,
            "invalidated": invalidated}


def edited_leg(env, layout_id, reference_id, backend):
    """Save ``env``, then edit and reuse a loaded copy."""
    from repro.persistence import save_environment

    with tempfile.TemporaryDirectory() as directory:
        save_environment(env, directory, backend=backend)
        return edit_and_reuse(env, directory, layout_id, reference_id)


def grown_edited_leg(env, layout_id, reference_id, backend):
    """Grow a saved copy by ``GROWN_RUNS`` forced runs, then edit and
    reuse a loaded copy of it."""
    with tempfile.TemporaryDirectory() as directory:
        grow(env, directory, layout_id, reference_id, backend)
        return edit_and_reuse(env, directory, layout_id, reference_id)


def run_once():
    """Cold + warm Fig. 5 execution in one environment, then a reloaded
    run per backend; returns stats."""
    from conftest import fresh_env
    from test_bench_fig05_complex_flow import (build_fig5_flow,
                                               build_layout_instance)
    from repro.obs import CACHE_HIT, RingBufferSink
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

    cold_flow = build_fig5_flow(env, layout_id, reference.instance_id)
    cold_started = time.perf_counter()
    cold = env.run(cold_flow, cache="readwrite")
    cold_elapsed = time.perf_counter() - cold_started

    sink = RingBufferSink(256)
    env.bus.subscribe(sink)
    warm_flow = build_fig5_flow(env, layout_id, reference.instance_id)
    warm_started = time.perf_counter()
    warm = env.run(warm_flow, cache="reuse")
    warm_elapsed = time.perf_counter() - warm_started
    hit_events = sum(1 for e in sink.events()
                     if e.event_type == CACHE_HIT)
    reloads = {}
    grown = {}
    edited = {}
    grown_edited = {}
    for backend in BACKENDS:
        leg = reload_leg(env, layout_id, reference.instance_id, backend)
        reloads[backend] = {
            "invocations": leg["invocations"],
            "same_ids": leg["reused"] == sorted(cold.created),
            "time_saved": leg["time_saved"]}
        grown[backend] = grown_leg(env, layout_id, reference.instance_id,
                                   backend)
        edited[backend] = edited_leg(env, layout_id,
                                     reference.instance_id, backend)
        grown_edited[backend] = grown_edited_leg(
            env, layout_id, reference.instance_id, backend)

    return {
        "cold_invocations": len(cold.results),
        "cold_created": len(cold.created),
        "warm_invocations": len(warm.results),
        "warm_hits": warm.cache_hits,
        "warm_reused": len(warm.reused),
        "hit_events": hit_events,
        "same_ids": sorted(warm.reused) == sorted(cold.created),
        "cold_elapsed": cold_elapsed,
        "warm_elapsed": warm_elapsed,
        "reloads": reloads,
        "grown": grown,
        "edited": edited,
        "grown_edited": grown_edited,
    }


def check(stats: dict, baseline: dict | None) -> list[str]:
    failures = []
    if stats["warm_invocations"] != 0:
        failures.append(
            f"warm run executed {stats['warm_invocations']} tool "
            "invocations; expected 0 (full coalescing)")
    if not stats["same_ids"]:
        failures.append("warm run did not return the cold run's "
                        "instance ids")
    if stats["hit_events"] != stats["warm_hits"] \
            or stats["warm_hits"] == 0:
        failures.append(
            f"expected one cache_hit event per coalesced invocation, "
            f"got {stats['hit_events']} events for "
            f"{stats['warm_hits']} hits")
    if stats["warm_elapsed"] > stats["cold_elapsed"] * (1 + TOLERANCE) \
            and stats["warm_elapsed"] > 0.05:
        failures.append(
            f"warm run ({stats['warm_elapsed']:.3f}s) slower than "
            f"cold ({stats['cold_elapsed']:.3f}s) beyond tolerance")
    for backend, leg in stats["reloads"].items():
        if leg["invocations"] != 0:
            failures.append(
                f"{backend} reload executed {leg['invocations']} tool "
                "invocations; expected 0 (full coalescing)")
        if not leg["same_ids"]:
            failures.append(f"{backend} reload did not return the cold "
                            "run's instance ids")
        if leg["time_saved"] <= 0:
            failures.append(f"{backend} reload reported no time saved")
    for backend, leg in stats["grown"].items():
        if leg["invocations"] != 0 or leg["hits"] == 0:
            failures.append(
                f"{backend} grown history: {leg['invocations']} tool "
                f"invocations and {leg['hits']} hits after {GROWN_RUNS} "
                "forced runs; expected 0 invocations (full coalescing)")
        if not leg["same_ids"]:
            failures.append(f"{backend} grown history: reuse did not "
                            "return the last forced run's instance ids")
    for backend, leg in stats["edited"].items():
        if leg["invalidated"] == 0:
            failures.append(
                f"{backend} edited history: reuse invalidated no group "
                "after the reference netlist was superseded")
        if leg["ran"] != DOWNSTREAM_OF_REFERENCE \
                or leg["hits"] != stats["cold_invocations"] - len(
                    DOWNSTREAM_OF_REFERENCE):
            failures.append(
                f"{backend} edited history: ran {leg['ran']} and reused "
                f"{leg['hits']} invocations; expected to run "
                f"{DOWNSTREAM_OF_REFERENCE} and reuse the rest")
    for backend, leg in stats["grown_edited"].items():
        expected = (GROWN_RUNS + 1, DOWNSTREAM_OF_REFERENCE,
                    stats["cold_invocations"] - len(DOWNSTREAM_OF_REFERENCE))
        if (leg["invalidated"], leg["ran"], leg["hits"]) != expected:
            failures.append(
                f"{backend} grown, then edited history: invalidated "
                f"{leg['invalidated']} groups, ran {leg['ran']} and reused "
                f"{leg['hits']} invocations; expected {expected[0]}, "
                f"{expected[1]} and {expected[2]}")
    if baseline is not None:
        for key in ("cold_invocations", "cold_created", "warm_hits",
                    "warm_reused"):
            want, got = baseline[key], stats[key]
            if want and abs(got - want) / want > TOLERANCE:
                failures.append(
                    f"{key} regressed: baseline {want}, measured {got} "
                    f"(>{TOLERANCE:.0%} drift)")
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
        recorded = {k: v for k, v in stats.items()
                    if not k.endswith("_elapsed")
                    and k not in ("reloads", "grown", "edited",
                                  "grown_edited")}
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
        print("cache regression check passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
