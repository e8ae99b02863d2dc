"""Byte-for-byte goldens of the two obs reports a scraper or CI reads.

A fixed ledger (five clean runs, one failed run, then the judged run)
and a fixed event log are written from constants; the goldens under
``tests/goldens/`` are what ``repro ledger export --format prometheus
--events`` (the ledger's ``repro_run_*`` series followed by the replayed
``MetricsRegistry`` families) and ``repro health --json`` printed for
them.  The judged run comes in two variants that together trip FAIL and
WARN in each of the three drift checks (tool duration, tool self time,
query latency).

After an intended change to either report, rewrite the goldens with
``PYTHONPATH=src python -m tests.test_obs_goldens``.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

from repro.cli import main
from repro.obs import (CACHE_HIT, CACHE_MISS, COMPOSITION_RUN,
                       EXECUTION_FAILED, FLOW_FINISHED, FLOW_STARTED,
                       INSTANCE_CREATED, TOOL_FINISHED, WORKER_STATS, Event,
                       JSONLSink, RunLedger, RunRecord, ToolRunStats,
                       timer_stats_of)
from repro.obs.workers import WorkerRunStats

GOLDENS = pathlib.Path(__file__).parent / "goldens"

SIM = "Simulator"
#: A tool type that needs every Prometheus label escape.
ODD = 'Ext"ract\\or\n'

#: Per baseline run: (Simulator mean, odd-tool mean, Simulator self
#: time, odd-tool self time, summed query seconds over 100 statements).
BASELINE = [
    (0.100, 0.300, 0.050, 0.200, 0.40),
    (0.104, 0.310, 0.052, 0.210, 0.41),
    (0.098, 0.290, 0.049, 0.190, 0.39),
    (0.102, 0.305, 0.051, 0.205, 0.40),
    (0.101, 0.295, 0.050, 0.195, 0.40),
]

#: The judged run: FAIL (Simulator) and WARN (odd tool) on both tool
#: drift checks and FAIL on query latency, or WARN on all three.
JUDGED = {
    "fail": (0.200, 0.350, 0.090, 0.235, 0.80),
    "warn": (0.120, 0.300, 0.060, 0.200, 0.55),
}


def _record(index: int, sim: float, odd: float, sim_self: float,
            odd_self: float, query_s: float, **fields) -> RunRecord:
    tools = {
        SIM: ToolRunStats(invocations=2, runs=3,
                          duration=timer_stats_of([sim * 0.9, sim * 1.1]),
                          queue_wait=0.004, retries=index % 2),
        ODD: ToolRunStats(invocations=1, runs=1,
                          duration=timer_stats_of([odd])),
    }
    workers = {
        "worker0": WorkerRunStats(batches=3, invocations=2, steals=1,
                                  cache_hits=1, busy_time=0.3,
                                  idle_time=0.1, rss_kb=20480),
        "worker1": WorkerRunStats(batches=2, invocations=1, respawns=1,
                                  busy_time=0.28, idle_time=0.12,
                                  rss_kb=19000),
    }
    profile = {
        "interval_ms": 5.0, "samples": 40,
        "tools": {SIM: {"self_s": sim_self, "busy_s": sim, "calls": 2,
                        "samples": 20, "mem_peak_kb": 0},
                  ODD: {"self_s": odd_self, "busy_s": odd, "calls": 1,
                        "samples": 20, "mem_peak_kb": 3}},
        "query": {"backend": "sqlite", "statements": 3, "count": 100,
                  "total_s": query_s, "max_s": 0.02, "slow": 1},
    }
    spec = dict(run_id=f"run{index:02d}", timestamp=1_000.0 + index,
                flow="fig6", executor="procpool",
                cache_policy="readwrite", trace_id=f"trace{index:02d}",
                wall_time=0.4, serial_time=0.72, queue_wait=0.008,
                parallelism=1.8, pool_size=2, runs=4, created=3,
                reused=1, cache_hits=2, cache_misses=2, tools=tools,
                workers=workers, profile=profile)
    spec.update(fields)
    return RunRecord(**spec)


def write_ledger(path: pathlib.Path, variant: str) -> pathlib.Path:
    ledger = RunLedger(path)
    for index, series in enumerate(BASELINE):
        ledger.append(_record(index, *series))
    ledger.append(_record(
        len(BASELINE), *BASELINE[0], errors=1, error="boom",
        error_class="ToolError", error_tool=SIM, failures=1))
    judged = {}
    if variant == "fail":
        judged = dict(cache_hits=0, cache_misses=4, parallelism=0.9,
                      quarantined=(ODD,), failures=1, timeouts=1,
                      workers={"worker0": WorkerRunStats(
                                   busy_time=0.3, idle_time=0.9),
                               "worker1": WorkerRunStats(
                                   busy_time=0.01, idle_time=1.19)})
    ledger.append(_record(len(BASELINE) + 1, *JUDGED[variant], **judged))
    return path


def write_events(path: pathlib.Path) -> pathlib.Path:
    events = [
        (FLOW_STARTED, {"flow": "fig6"}, {"nodes": 6}),
        (TOOL_FINISHED, {"tool_type": SIM, "duration": 0.1},
         {"runs": 2, "queue_wait": 0.005}),
        (TOOL_FINISHED, {"tool_type": "Sim-2.x", "duration": 0.2,
                         "flow": "fig6"}, {"runs": 1}),
        (COMPOSITION_RUN, {"duration": 0.001, "flow": "fig6"}, {}),
        (INSTANCE_CREATED, {}, {"entity_type": "Netlist"}),
        (INSTANCE_CREATED, {}, {"entity_type": "Performance"}),
        (CACHE_HIT, {"tool_type": SIM}, {"bytes": 1024, "saved": 0.05}),
        (CACHE_MISS, {}, {"key": "abc"}),
        (WORKER_STATS, {"machine": "worker0", "duration": 0.2},
         {"batches": 3, "invocations": 5, "steals": 1, "cache_hits": 1,
          "busy": 0.2, "idle": 0.05, "utilization": 0.8}),
        (EXECUTION_FAILED, {"flow": "fig6"}, {"error": "boom"}),
        (FLOW_FINISHED, {"flow": "fig6", "duration": 0.5}, {"runs": 3}),
    ]
    with JSONLSink(path) as sink:
        for seq, (kind, fields, payload) in enumerate(events, start=1):
            sink.handle(Event(seq=seq, event_type=kind,
                              timestamp=2_000.0 + seq,
                              payload=tuple(sorted(payload.items())),
                              **fields))
    return path


def _cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def reports(directory: pathlib.Path) -> dict[str, tuple[int, str]]:
    """Exit code and stdout of each golden report, by golden name."""
    events = write_events(directory / "run.jsonl")
    ledgers = {variant: write_ledger(directory / f"{variant}.jsonl",
                                     variant)
               for variant in JUDGED}
    return {
        "obs_export.prom": _cli("ledger", "export", str(ledgers["fail"]),
                                "--format", "prometheus",
                                "--events", str(events)),
        "obs_health_fail.json": _cli("health", str(ledgers["fail"]),
                                     "--json"),
        "obs_health_warn.json": _cli("health", str(ledgers["warn"]),
                                     "--json"),
    }


def test_reports_match_goldens(tmp_path):
    produced = reports(tmp_path)
    for name, (_, text) in produced.items():
        golden = (GOLDENS / name).read_text(encoding="utf-8")
        assert text == golden, name
    assert [code for code, _ in produced.values()] == [0, 1, 0]


def test_goldens_trip_fail_and_warn_in_every_drift_check():
    verdicts: dict[str, set[str]] = {}
    for name in ("obs_health_fail.json", "obs_health_warn.json"):
        report = json.loads((GOLDENS / name).read_text(encoding="utf-8"))
        for check in report["checks"]:
            verdicts.setdefault(check["name"], set()).add(check["verdict"])
    for check in ("tool-duration-drift", "tool-self-time-drift",
                  "query-latency-drift"):
        assert verdicts[check] == {"fail", "warn"}, check


if __name__ == "__main__":
    import tempfile

    GOLDENS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name, (_, text) in reports(pathlib.Path(scratch)).items():
            (GOLDENS / name).write_text(text, encoding="utf-8")
            print(f"wrote {GOLDENS / name}")
