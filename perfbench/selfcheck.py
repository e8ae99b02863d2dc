"""Exact-count self-check of the traced run.

Runs ``run.py --trace 1`` twice per workload with one seed and requires
the per-cycle counts below to repeat exactly.  Run from the root of a
checkout::

    python3 perfbench/selfcheck.py --seed 1 --seconds 4

Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXACT_COUNTS = ("cache.hits", "cache.misses", "history.records",
                "memo.appends", "registry.signatures",
                "history.backward_traces", "tool.calls")


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        check=False)
    if completed.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited "
                         f"{completed.returncode}\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (entry["name"] for entry in declared["workloads"]):
        first, second = (traced_run(workload, args.seed, args.seconds)
                         for _ in range(2))
        for name in EXACT_COUNTS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            verdict = "ok" if a == b else "DIFFERS"
            print(f"{workload:<11} {name:<24} {a:>10g} {b:>10g} "
                  f"{verdict}")
            if a != b:
                problems.append(f"{workload}: {name} {a} != {b}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
