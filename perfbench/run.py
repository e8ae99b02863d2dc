"""Corpus benchmark: one workload, end to end (``--trace 0``) or per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced cycles and reports the per-layer metrics,
writes the spans to ``.bench_out/`` and prints a self-time table to
standard error.  NOTES.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: per-layer metric -> span name, for span-derived seconds and counts
_SECONDS = {
    "persistence.load_s": "persistence.load",
    "persistence.save_s": "persistence.save",
    "core.plan_s": "core.plan",
    "execution.execute_s": "execution.execute",
    "cache.key_s": "cache.key",
    "cache.validate_s": "cache.validate",
    "cache.store_s": "cache.store",
    "memo.poll_s": "memo.poll",
    "memo.append_s": "memo.append",
    "registry.register_s": "registry.register",
    "registry.signature_s": "registry.signature",
    "tool.body_s": "tool.body",
    "history.record_s": "history.record",
    "datastore.put_s": "datastore.put",
    "store.add_s": "store.add",
    "history.backward_trace_s": "history.backward_trace",
    "history.forward_closure_s": "history.forward_closure",
    "obs.ledger_s": "obs.ledger",
}
_SELF_SECONDS = {
    "execution.self_s": "execution.execute",
    "cache.fetch_s": "cache.fetch",
}
_COUNTS = {
    "cache.keys": "cache.key",
    "memo.polls": "memo.poll",
    "memo.appends": "memo.append",
    "registry.signatures": "registry.signature",
    "tool.calls": "tool.body",
    "history.records": "history.record",
    "history.backward_traces": "history.backward_trace",
    "history.forward_closures": "history.forward_closure",
}


def best_ops(cycles: list[list[Any]]) -> list[Any]:
    """The fastest successful op of each scenario (best of all cycles).

    The host's speed drifts by tens of percent within a run and between
    runs, and a run-wide median follows it; the fastest of the 34 to 70
    ops a 30 s run times per scenario moves far less (NOTES.md).  Empty
    if a scenario never succeeded.
    """
    best = []
    for ops in zip(*cycles):  # one op per scenario per cycle
        done = [op for op in ops if op.ok]
        if not done:
            return []
        best.append(min(done, key=lambda op: op.seconds))
    return best


def invocations_per_s(cycles: list[list[Any]]) -> float:
    """Invocations of one cycle over its scenarios' best op seconds."""
    best = best_ops(cycles)
    if not best:
        return 0.0
    return (sum(op.invocations for op in best)
            / sum(op.seconds for op in best))


def end_to_end(bench: Any, cycles: list[list[Any]]) -> dict[str, float]:
    best_ms = sorted(op.seconds * 1e3 for op in best_ops(cycles)) or [0.0]
    latencies = [op.seconds * 1e3 for cycle in cycles for op in cycle
                 if op.ok]
    if len(latencies) >= 2:  # run-wide figures, which follow the host
        print(f"all successful ops: {len(latencies)}, p50 "
              f"{statistics.median(latencies):.3f} ms, p90 "
              f"{statistics.quantiles(latencies, n=10)[-1]:.3f} ms; "
              f"set-ups: {len(bench.setup_s)}, median "
              f"{statistics.median(bench.setup_s):.4f} s", file=sys.stderr)
    return {
        "invocations_per_s": invocations_per_s(cycles),
        "best_op_ms_median": statistics.median(best_ms),
        "best_op_ms_max": best_ms[-1],
        # best of N, like the ops: on a shared 2-vCPU host the median of
        # a run's set-ups moved by 0.20 between two ten-run passes of the
        # same code (NOTES.md)
        "setup_s": min(bench.setup_s),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(bench: Any, plain: list[list[Any]], traced: list[list[Any]],
              recorder: Any, summary: tuple[Any, Any, Any]
              ) -> dict[str, float]:
    inclusive, own, count = summary
    cycles = len(traced)
    ops = [op for cycle in traced for op in cycle]
    everything = ops + [op for cycle in plain for op in cycle]
    hits = sum(op.hits for op in ops)
    misses = sum(op.misses for op in ops)
    wall = sum(op.wall_s for op in ops)
    metrics = {name: inclusive[span] / cycles
               for name, span in _SECONDS.items()}
    metrics.update({name: own[span] / cycles
                    for name, span in _SELF_SECONDS.items()})
    metrics.update({name: count[span] / cycles
                    for name, span in _COUNTS.items()})
    metrics.update({
        "persistence.bytes_per_instance":
            sum(op.history_bytes for op in ops)
            / max(1, sum(op.instances for op in ops)),
        "execution.queue_wait_s":
            sum(op.queue_wait_s for op in ops) / cycles,
        "execution.speedup":
            sum(op.serial_s for op in ops) / wall if wall else 1.0,
        "cache.validate_us_per_hit":
            inclusive["cache.validate"] / hits * 1e6 if hits else 0.0,
        "cache.hits": hits / cycles,
        "cache.misses": misses / cycles,
        "cache.invalidated": sum(op.invalidated for op in ops) / cycles,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "datastore.bytes": recorder.amounts["datastore.bytes"] / cycles,
        "scenarios.materialize_s": statistics.median(bench.materialize_s),
        "setup.grow_s": bench.grow_s,
        "unattributed_frac":
            (own["op"] + own["execution.execute"]) / inclusive["op"],
        "trace_overhead_frac":
            1.0 - invocations_per_s(traced) / invocations_per_s(plain)
            if invocations_per_s(plain) else 0.0,
        "failed_frac": sum(not op.ok for op in everything)
        / len(everything),
    })
    return metrics


def self_time_table(summary: tuple[Any, Any, Any], cycles: int) -> str:
    """Self seconds per span name and share of op time, per cycle."""
    inclusive, own, count = summary
    total = inclusive["op"]
    lines = [f"self time per traced cycle ({cycles} cycles; pool_busy "
             "covers the coordinator only):",
             f"  {'span':<26} {'self s':>10} {'share':>7} {'calls':>9}"]
    for name in sorted(own, key=own.get, reverse=True):
        lines.append(f"  {name:<26} {own[name] / cycles:>10.5f} "
                     f"{own[name] / total:>7.1%} "
                     f"{count[name] / cycles:>9.1f}")
    return "\n".join(lines)


def measure(bench: Any, seconds: float, recorder: Any, patches: Any
            ) -> tuple[list[list[Any]], list[list[Any]]]:
    """Run whole cycles, with timed set-ups between them, for ``seconds``.

    After each cycle, set-ups repeat until they have taken
    ``SETUP_SHARE`` of the time so far.  With a recorder the cycles
    alternate untraced and traced (ending on a traced one), so the
    overhead compares runs under the same load.
    """
    from corpus_ops import SETUP_SHARE

    trace = recorder is not None
    plain: list[list[Any]] = []
    traced: list[list[Any]] = []
    started = time.perf_counter()
    deadline = started + seconds
    setting_up = 0.0
    while True:
        while setting_up < SETUP_SHARE * (time.perf_counter() - started):
            setting_up += bench.set_up_again()
        if trace and len(plain) > len(traced):
            patches.install()
            try:
                traced.append(bench.run_cycle(recorder))
            finally:
                patches.remove()
        else:
            plain.append(bench.run_cycle())
        if time.perf_counter() >= deadline \
                and (not trace or len(plain) == len(traced)):
            return plain, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "rerun_deep", "pool_busy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SOURCE}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from corpus_ops import WORKLOADS, CorpusBench
    from spans import Patches, SpanRecorder, summarize

    #: the metrics to print, by name and unit, for this kind of run
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in
             declared["per_layer" if args.trace else "end_to_end"]}
    recorder = SpanRecorder() if args.trace else None
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    bench = CorpusBench(WORKLOADS[args.workload], args.seed, work)
    try:
        bench.set_up()
        plain, traced = measure(
            bench, args.seconds, recorder,
            Patches(recorder) if recorder is not None else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        multiprocessing.active_children()  # reap any finished workers
    ops = [op for cycle in plain + traced for op in cycle]
    failed = sum(not op.ok for op in ops)
    if recorder is not None:
        summary = summarize(recorder.spans)
        values = per_layer(bench, plain, traced, recorder, summary)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        recorder.write(spans)
        print(self_time_table(summary, len(traced)), file=sys.stderr)
        print(f"spans written to {spans}", file=sys.stderr)
    else:
        values = end_to_end(bench, plain)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
