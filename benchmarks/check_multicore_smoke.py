"""CI gate: the procpool executor must be fast AND change nothing.

Three parts, all mandatory:

1. **CLI equivalence** — drives the real ``repro run`` CLI over a
   saved Fig. 6 parallel flow with ``--executor procpool --workers 2``
   and over a second, identical project sequentially.  The procpool
   run must exit 0, produce every branch, record ``procpool`` in the
   ledger, leave the shared memo behind with one complete v1 line per
   unit it ran (the ledger's ``runs``), count those runs as its
   workers' invocations and its serial time as their busy time (the
   run is fault-free, so no attempt is lost), and leave a history whose
   (entity type, content digest) multiset is byte-identical to the
   sequential run — multi-core execution must never change what gets
   designed.

2. **Worker telemetry** — the traced procpool run must merge cleanly:
   the trace validates with no orphans, every tool span carries
   exactly one ``verify`` and one ``tool_body`` phase child, one lane
   span exists per worker, ``repro trace timeline`` renders the trace,
   the ledger record carries per-worker stats, and — after a second
   ``--force`` run builds a baseline — the ``worker-utilization``
   health check reports on the smoke ledger without failing.

3. **Parallelism efficiency** — re-times the ``scale_pipeline``
   scenario from ``bench_multicore.py`` at 1 and 2 workers and gates
   the 2-worker efficiency (speedup / workers) against
   ``max(EFFICIENCY_FLOOR, 0.8 * checked-in baseline)`` from
   ``BENCH_multicore.json``, i.e. a hard floor plus a 20% regression
   tolerance.  Ratios, not wall seconds, so the gate is
   machine-independent.

Raw timings, the procpool run's ledger and its trace are copied into
``benchmarks/runs/`` (ignored by git) for upload on CI failure.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from bench_multicore import run_scenario  # noqa: E402
from check_chaos_smoke import (build_project,  # noqa: E402
                               history_signature, netlist_count)

REPO = pathlib.Path(__file__).resolve().parent.parent
BENCH = REPO / "BENCH_multicore.json"
ARTIFACTS = REPO / "benchmarks" / "runs"

BRANCHES = 4
WORKERS = 2
EFFICIENCY_FLOOR = 0.6
REGRESSION_TOLERANCE = 0.8  # keep at least 80% of the recorded baseline


def run_cli(directory: pathlib.Path, *extra: str) -> int:
    from repro.cli import main as repro_main

    return repro_main(["run", str(directory), "fig6", *extra])


def last_record(directory: pathlib.Path):
    from repro.obs import RunLedger

    return RunLedger(directory / "ledger.jsonl").records()[-1]


def check_memo(path: pathlib.Path, runs: int,
               failures: list[str]) -> None:
    """The caching run published one complete v1 line per unit run."""
    from repro.execution import SharedDerivationMemo

    if not path.exists():
        failures.append(
            "a caching procpool run over a saved project must "
            "leave the shared derivation memo behind")
        return
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    # the memo's own reader returns only complete, well-formed lines of
    # the current schema version
    records = SharedDerivationMemo(path).poll()
    print(f"  memo: {len(lines)} lines, {len(records)} complete v1 "
          f"records, ledger runs={runs}")
    if not text.endswith("\n") or len(records) != len(lines):
        failures.append(
            "every shared memo line must be a complete v1 record")
    if len(lines) != runs:
        failures.append(
            f"the memo must hold one line per unit run ({runs}), "
            f"got {len(lines)}")


def check_worker_counters(record, failures: list[str]) -> None:
    """The workers' invocations sum to the record's runs and their busy
    times to its serial time (both are the worker-measured calls)."""
    invocations = sum(w.invocations for w in record.workers.values())
    busy = sum(w.busy_time for w in record.workers.values())
    print(f"  workers: {invocations} invocations, busy {busy:.6f}s "
          f"(ledger runs={record.runs}, serial "
          f"{record.serial_time:.6f}s)")
    if invocations != record.runs:
        failures.append(
            f"worker invocations must sum to the ledger's runs "
            f"({record.runs}), got {invocations}")
    if abs(busy - record.serial_time) > 1e-5:
        failures.append(
            f"worker busy time must sum to the serial time "
            f"({record.serial_time:.6f}s), got {busy:.6f}s")


def check_worker_telemetry(pooled: pathlib.Path,
                           failures: list[str]) -> None:
    """Gate the PR 8 surface: merged spans, timeline, health check."""
    from repro.cli import main as repro_main
    from repro.obs import (PHASE_SPAN, TOOL_SPAN, WAVE_SPAN,
                           HealthThresholds, RunLedger, evaluate_health,
                           read_spans, validate_spans)

    spans = list(read_spans(pooled / "trace.jsonl", strict=False))
    problems = validate_spans(spans)
    if problems:
        failures.append(
            f"merged procpool trace must validate, got {problems}")
    lanes = {s.value("machine") for s in spans
             if s.kind == WAVE_SPAN and s.name.startswith("lane:")}
    print(f"  trace: {len(spans)} spans, {len(lanes)} worker lanes")
    if len(lanes) != WORKERS:
        failures.append(
            f"expected {WORKERS} worker lane spans, got "
            f"{sorted(lanes)}")
    tools = [s for s in spans if s.kind == TOOL_SPAN]
    phases = [s for s in spans if s.kind == PHASE_SPAN]
    if len(tools) != BRANCHES:
        failures.append(
            f"expected {BRANCHES} tool spans, got {len(tools)}")
    orphans = [p.name for p in phases
               if p.parent_id not in {t.span_id for t in tools}]
    if orphans:
        failures.append(
            f"phase spans must parent on tool spans, orphaned: "
            f"{orphans}")
    for tool in tools:
        names = sorted(p.value("phase") for p in phases
                       if p.parent_id == tool.span_id)
        if names != ["tool_body", "verify"]:
            failures.append(
                f"tool span {tool.name} must have exactly one verify "
                f"and one tool_body phase (got {names})")
    code = repro_main(["trace", "timeline", str(pooled)])
    if code != 0:
        failures.append(
            f"'repro trace timeline' must exit 0, got {code}")

    # a second (forced) run gives the health check a same-executor
    # baseline; --force keeps it from coalescing into pure cache hits
    code = run_cli(pooled, "--executor", "procpool",
                   "--workers", str(WORKERS), "--cache", "readwrite",
                   "--trace", "--force")
    if code != 0:
        failures.append(
            f"forced second procpool run must exit 0, got {code}")
    records = RunLedger(pooled / "ledger.jsonl").records()
    if not records[-1].workers:
        failures.append(
            "procpool ledger records must carry per-worker stats")
    report = evaluate_health(
        records, thresholds=HealthThresholds(min_samples=1))
    verdicts = {check.name: check.verdict for check in report.checks}
    print(f"  health: worker-utilization="
          f"{verdicts.get('worker-utilization')} "
          f"exit={report.exit_code}")
    if "worker-utilization" not in verdicts:
        failures.append(
            "health report must include the worker-utilization check")
    if report.exit_code != 0:
        failures.append(
            f"smoke-ledger health must pass, got exit "
            f"{report.exit_code}: {verdicts}")
    shutil.copy(pooled / "trace.jsonl",
                ARTIFACTS / "multicore_smoke_trace.jsonl")


def baseline_efficiency() -> float | None:
    """2-worker scale_pipeline efficiency from the checked-in bench."""
    if not BENCH.exists():
        return None
    entries = json.loads(BENCH.read_text(encoding="utf-8"))["entries"]
    if not entries:
        return None
    results = entries[-1]["results"]
    return results["scale_pipeline"]["efficiency"][str(WORKERS)]


def main() -> int:
    failures: list[str] = []
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        root = pathlib.Path(scratch)

        # 1a. the procpool CLI path runs the whole flow
        pooled = root / "pooled"
        build_project(pooled)
        code = run_cli(pooled, "--executor", "procpool",
                       "--workers", str(WORKERS),
                       "--cache", "readwrite", "--trace")
        print(f"procpool --workers {WORKERS}: exit {code}")
        if code != 0:
            failures.append(f"procpool run must exit 0, got {code}")
        if netlist_count(pooled) != BRANCHES:
            failures.append(
                f"all {BRANCHES} branches must produce, got "
                f"{netlist_count(pooled)}")
        record = last_record(pooled)
        print(f"  ledger: executor={record.executor} "
              f"runs={record.runs}")
        if record.executor != "procpool":
            failures.append(
                f"ledger must record executor 'procpool', got "
                f"{record.executor!r}")
        check_memo(pooled / "memo.jsonl", record.runs, failures)
        check_worker_counters(record, failures)
        # 1b. byte-identical history vs the sequential executor
        sequential = root / "sequential"
        build_project(sequential)
        code = run_cli(sequential)
        if code != 0:
            failures.append(f"sequential reference exited {code}")
        if history_signature(pooled) != history_signature(sequential):
            failures.append(
                "procpool history digests differ from the sequential "
                "executor")
        else:
            print("  history content-identical to sequential run")

        # 2. the traced run's worker telemetry must merge cleanly
        # (after 1b: this re-runs the flow with --force, which grows
        # the pooled history past the sequential reference)
        check_worker_telemetry(pooled, failures)
        shutil.copy(pooled / "ledger.jsonl",
                    ARTIFACTS / "multicore_smoke_ledger.jsonl")

    # 3. efficiency gate vs the checked-in trajectory
    outcome = run_scenario("scale_pipeline", sweep=(1, WORKERS),
                           repeats=2)
    raw = outcome.pop("raw")
    (ARTIFACTS / "multicore_smoke_raw.json").write_text(
        json.dumps({"raw": raw, "results": outcome}, indent=1,
                   sort_keys=True) + "\n", encoding="utf-8")
    if not outcome["digest_sequential_equal"]:
        failures.append(
            "scale_pipeline procpool digests diverged from sequential")
    efficiency = outcome["efficiency"][str(WORKERS)]
    baseline = baseline_efficiency()
    required = EFFICIENCY_FLOOR
    if baseline is not None:
        required = max(required, REGRESSION_TOLERANCE * baseline)
    print(f"scale_pipeline efficiency at {WORKERS} workers: "
          f"{efficiency:.2f} (required >= {required:.2f}, "
          f"baseline {baseline})")
    if efficiency < required:
        failures.append(
            f"parallelism efficiency {efficiency:.2f} fell below "
            f"{required:.2f} (floor {EFFICIENCY_FLOOR}, baseline "
            f"{baseline} with 20% tolerance)")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("multicore smoke check passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
