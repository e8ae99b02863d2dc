"""CI gate: the continuous-profiling layer works end to end.

Drives the real CLI over a saved Fig. 6 parallel flow (sqlite
history backend) and checks the whole PR 9 surface:

1. **Profiled runs on both parallel executors** — ``repro run
   --profile`` under ``--executor scheduled`` and ``--executor
   procpool --workers 4`` must exit 0 and append one ``profile.v1``
   record each to ``profiles.jsonl``, stamped with the run and trace
   ids the ledger recorded.

2. **Containment** — each record's per-tool self time must fit inside
   the summed traced tool-span durations of its own run: sampling may
   only ever *attribute* time the trace already accounts for.

3. **Flamegraph coverage** — ``repro profile flamegraph`` must emit
   non-empty collapsed-stack output in which every tool type the
   ledger saw appears as a root frame (the synthetic
   ``(faster-than-interval)`` frame guarantees this even for tool
   bodies that finish between sweeps).

4. **Query-plan audit** — ``repro profile queries`` must exit 0,
   list at least one indexed statement, and report no full-table-scan
   regressions on statements expected to use an index.

5. **Slow-query capture** — an injected slow statement against the
   project's sqlite history must land in ``slow_queries.jsonl`` with
   the right statement fingerprint.

6. **Health gates** — on the freshly built two-run ledger, the
   ``tool-self-time-drift`` and ``query-latency-drift`` checks must
   both be present and the report must pass.

The profiled ledger and profile log are copied into ``benchmarks/runs/``
(ignored by git) for upload on CI failure.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from check_chaos_smoke import build_project  # noqa: E402

REPO = pathlib.Path(__file__).resolve().parent.parent
ARTIFACTS = REPO / "benchmarks" / "runs"

WORKERS = 4
INTERVAL_MS = 0.5
#: Slack for clock granularity when comparing profile self time
#: against summed traced span durations.
EPSILON = 1e-4


def run_cli(directory: pathlib.Path, *extra: str) -> int:
    from repro.cli import main as repro_main

    return repro_main(["run", str(directory), "fig6", *extra])


def profiled_run(directory: pathlib.Path, failures: list[str],
                 *extra: str) -> None:
    code = run_cli(directory, "--backend", "sqlite", "--cache",
                   "readwrite", "--trace", "--profile",
                   "--profile-interval-ms", str(INTERVAL_MS), *extra)
    label = " ".join(extra) or "default"
    print(f"profiled run ({label}): exit {code}")
    if code != 0:
        failures.append(f"profiled run ({label}) must exit 0, "
                        f"got {code}")


def tool_span_budget(directory: pathlib.Path,
                     trace_id: str) -> dict[str, float]:
    """Summed traced tool-span seconds per tool type for one run."""
    from repro.obs import TOOL_SPAN, read_spans

    budget: dict[str, float] = {}
    for span in read_spans(directory / "trace.jsonl", strict=False):
        if span.trace_id == trace_id and span.kind == TOOL_SPAN:
            tool_type = span.value("tool_type",
                                   span.name.split(":", 1)[-1])
            budget[tool_type] = budget.get(tool_type, 0.0) + \
                span.duration
    return budget


def check_containment(directory: pathlib.Path, record,
                      profile: dict, failures: list[str]) -> None:
    budget = tool_span_budget(directory, record.trace_id)
    for tool_type, stats in profile.get("tools", {}).items():
        cap = budget.get(tool_type)
        if cap is None:
            failures.append(
                f"{record.executor}: profiled tool {tool_type!r} has "
                f"no traced tool spans")
            continue
        self_s = float(stats.get("self_s", 0.0))
        print(f"  {record.executor}/{tool_type}: self "
              f"{self_s * 1e3:.2f}ms <= spans {cap * 1e3:.2f}ms")
        if self_s > cap + EPSILON:
            failures.append(
                f"{record.executor}: {tool_type} self time "
                f"{self_s * 1e3:.2f}ms exceeds its traced tool spans "
                f"({cap * 1e3:.2f}ms)")


def check_flamegraph(directory: pathlib.Path, tool_types: set[str],
                     out: pathlib.Path, failures: list[str]) -> None:
    from repro.cli import main as repro_main

    code = repro_main(["profile", "flamegraph", str(directory),
                       "-o", str(out)])
    if code != 0:
        failures.append(f"'repro profile flamegraph' exited {code}")
        return
    collapsed = out.read_text(encoding="utf-8").strip()
    if not collapsed:
        failures.append("flamegraph export is empty")
        return
    lines = collapsed.splitlines()
    print(f"flamegraph: {len(lines)} collapsed-stack line(s)")
    for line in lines:
        frames, _, count = line.rpartition(" ")
        if not frames or not count.isdigit() or int(count) <= 0:
            failures.append(
                f"invalid collapsed-stack line: {line!r}")
            return
    roots = {line.split(";", 1)[0] for line in lines}
    missing = tool_types - roots
    if missing:
        failures.append(
            f"flamegraph is missing tool type(s) {sorted(missing)}; "
            f"roots are {sorted(roots)}")


def check_queries_cli(directory: pathlib.Path,
                      failures: list[str]) -> None:
    from repro.cli import main as repro_main
    from repro.history.sqlite_store import SqliteHistoryStore
    from repro.persistence import HISTORY_SQLITE_FILE

    code = repro_main(["profile", "queries", str(directory)])
    print(f"'repro profile queries': exit {code}")
    if code != 0:
        failures.append(
            f"'repro profile queries' must exit 0, got {code}")
    store = SqliteHistoryStore(directory / HISTORY_SQLITE_FILE)
    try:
        audits = store.query_plan_audit()
    finally:
        store.close()
    indexed = [a for a in audits if a["uses_index"]]
    regressed = [a["name"] for a in audits
                 if a["expect_index"] and a["full_scan"]]
    print(f"  query plans: {len(indexed)}/{len(audits)} indexed")
    if not indexed:
        failures.append("no audited statement uses an index")
    if regressed:
        failures.append(
            f"indexed statements regressed to full scans: {regressed}")


def check_slow_query_capture(directory: pathlib.Path,
                             failures: list[str]) -> None:
    from repro.history.sqlite_store import SqliteHistoryStore
    from repro.obs import QueryRecorder, statement_fingerprint
    from repro.persistence import HISTORY_SQLITE_FILE, SLOW_QUERY_FILE

    log = directory / SLOW_QUERY_FILE
    statement = "SELECT repro_sleep(0.02)"
    store = SqliteHistoryStore(directory / HISTORY_SQLITE_FILE)
    try:
        store.set_query_recorder(QueryRecorder(
            slow_threshold=0.005, slow_log=log, backend="sqlite"))
        store._conn.create_function(
            "repro_sleep", 1, lambda seconds: time.sleep(seconds) or 0)
        store._fetchall(statement)
    finally:
        store.close()
    entries = [json.loads(line) for line in
               log.read_text(encoding="utf-8").splitlines()] \
        if log.exists() else []
    captured = [e for e in entries
                if e["fingerprint"] == statement_fingerprint(statement)]
    print(f"slow-query log: {len(entries)} entr(ies), "
          f"{len(captured)} from the injected statement")
    if not captured:
        failures.append(
            "injected slow statement never reached the slow-query log")


def check_health(records, failures: list[str]) -> None:
    from repro.obs import HealthThresholds, evaluate_health

    report = evaluate_health(
        records, thresholds=HealthThresholds(min_samples=1))
    verdicts = {check.name: check.verdict for check in report.checks}
    print(f"health: tool-self-time-drift="
          f"{verdicts.get('tool-self-time-drift')} "
          f"query-latency-drift={verdicts.get('query-latency-drift')} "
          f"exit={report.exit_code}")
    for name in ("tool-self-time-drift", "query-latency-drift"):
        if name not in verdicts:
            failures.append(f"health report must include {name}")
    if report.exit_code != 0:
        failures.append(
            f"smoke-ledger health must pass, got exit "
            f"{report.exit_code}: {verdicts}")


def main() -> int:
    from repro.obs import RunLedger, read_profiles
    from repro.persistence import PROFILE_FILE

    failures: list[str] = []
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        directory = pathlib.Path(scratch) / "project"
        build_project(directory)

        # 1. one profiled run per parallel executor (procpool forced
        # so its tools recompute instead of coalescing on the memo)
        profiled_run(directory, failures,
                     "--executor", "scheduled")
        profiled_run(directory, failures,
                     "--executor", "procpool",
                     "--workers", str(WORKERS), "--force")

        records = RunLedger(directory / "ledger.jsonl").records()
        profiles = read_profiles(directory / PROFILE_FILE)
        if len(profiles) != 2:
            failures.append(
                f"expected 2 profile records, got {len(profiles)}")
        tool_types: set[str] = set()
        for record, profile in zip(records[-2:], profiles[-2:]):
            if profile.get("run_id") != record.run_id:
                failures.append(
                    f"profile run id {profile.get('run_id')!r} does "
                    f"not match ledger {record.run_id!r}")
            if profile.get("trace_id") != record.trace_id:
                failures.append(
                    f"profile trace id does not match the ledger's "
                    f"for run {record.run_id}")
            if not record.profile:
                failures.append(
                    f"ledger record {record.run_id} carries no "
                    f"profile summary")
            if not profile.get("query", {}).get("count"):
                failures.append(
                    f"profile for {record.executor} recorded no "
                    f"history-query telemetry")
            tool_types |= set(record.tools)
            # 2. containment against each run's own traced spans
            check_containment(directory, record, profile, failures)

        # 3-5. export, audit, and slow-query surfaces
        check_flamegraph(directory, tool_types,
                         ARTIFACTS / "profile_smoke_flame.txt",
                         failures)
        check_queries_cli(directory, failures)
        check_slow_query_capture(directory, failures)

        # 6. the two profiling health checks on the fresh ledger
        check_health(records, failures)

        shutil.copy(directory / "ledger.jsonl",
                    ARTIFACTS / "profile_smoke_ledger.jsonl")
        shutil.copy(directory / PROFILE_FILE,
                    ARTIFACTS / "profile_smoke_profiles.jsonl")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("profile smoke check passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
