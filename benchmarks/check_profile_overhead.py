"""CI gate: ``--profile`` must cost less than 7% of fig06 wall time.

The sampling profiler is meant to be cheap enough to leave on for any
investigative run: a background sweep thread, per-invocation clock
reads, and (on sqlite projects) per-statement timers.  This gate
measures the end-to-end ``repro run`` wall time of the Fig. 6 parallel
flow with and without ``--profile`` — best-of-N on fresh projects so
history growth and filesystem warmup cancel out — and fails when the
profiled best exceeds the unprofiled best by more than
``OVERHEAD_BUDGET``.

``tracemalloc`` memory tracking is deliberately *excluded*: it costs
~4x on allocation-heavy tools (the reason ``--profile-memory`` is a
separate opt-in flag) and would never fit this budget.

The raw measurement goes to ``benchmarks/runs/profile_overhead_raw.json``
(ignored by git); the checked-in trajectory lives in
``BENCH_profile.json`` at the repo root (one entry per PR that touched
the profiling hot path).
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from check_chaos_smoke import build_project  # noqa: E402

REPO = pathlib.Path(__file__).resolve().parent.parent
BENCH = REPO / "BENCH_profile.json"
ARTIFACTS = REPO / "benchmarks" / "runs"

#: Hard ceiling on (profiled / unprofiled - 1) for the best-of-N runs.
OVERHEAD_BUDGET = 0.07

#: Interleaved (base, profiled) measurement pairs; best of each side.
REPEATS = 5

#: Match the CLI default so the gate measures what users get.
PROFILE_INTERVAL_MS = 5.0


def timed_run(root: pathlib.Path, name: str, *extra: str) -> float:
    """Wall seconds of one ``repro run`` over a fresh fig06 project."""
    from repro.cli import main as repro_main

    directory = root / name
    build_project(directory)
    started = time.perf_counter()
    code = repro_main(["run", str(directory), "fig6", *extra])
    elapsed = time.perf_counter() - started
    if code != 0:
        raise SystemExit(f"FAIL: fig06 run {name!r} exited {code}")
    return elapsed


def measure() -> dict:
    base_walls: list[float] = []
    profiled_walls: list[float] = []
    with tempfile.TemporaryDirectory() as scratch:
        root = pathlib.Path(scratch)
        # one untimed warmup pays the import/bytecode cost up front
        timed_run(root, "warmup")
        for index in range(REPEATS):
            base_walls.append(timed_run(root, f"base{index}"))
            profiled_walls.append(timed_run(
                root, f"profiled{index}", "--profile",
                "--profile-interval-ms", str(PROFILE_INTERVAL_MS)))
    best_base = min(base_walls)
    best_profiled = min(profiled_walls)
    return {
        "base_walls": [round(w, 6) for w in base_walls],
        "profiled_walls": [round(w, 6) for w in profiled_walls],
        "best_base": round(best_base, 6),
        "best_profiled": round(best_profiled, 6),
        "overhead": round(best_profiled / best_base - 1.0, 4),
        "repeats": REPEATS,
        "interval_ms": PROFILE_INTERVAL_MS,
    }


def main() -> int:
    failures: list[str] = []
    results = measure()
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    (ARTIFACTS / "profile_overhead_raw.json").write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    overhead = results["overhead"]
    print(f"fig06 --profile overhead: {overhead * 100:.2f}% "
          f"(best base {results['best_base'] * 1e3:.1f}ms, best "
          f"profiled {results['best_profiled'] * 1e3:.1f}ms, "
          f"budget {OVERHEAD_BUDGET * 100:.0f}%)")
    if overhead > OVERHEAD_BUDGET:
        failures.append(
            f"--profile overhead {overhead * 100:.2f}% exceeds the "
            f"{OVERHEAD_BUDGET * 100:.0f}% budget")

    if not BENCH.exists():
        failures.append(
            "BENCH_profile.json trajectory file is missing")
    else:
        entries = json.loads(
            BENCH.read_text(encoding="utf-8"))["entries"]
        if not entries:
            failures.append("BENCH_profile.json has no entries")
        else:
            recorded = entries[-1]["results"]["fig06"]["overhead"]
            print(f"  checked-in trajectory: "
                  f"{recorded * 100:.2f}% ({entries[-1]['label']})")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("profile overhead check passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
