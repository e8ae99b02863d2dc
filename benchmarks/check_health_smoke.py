"""CI gate: the run ledger must catch an injected tool slowdown.

Exercises the longitudinal health pipeline end to end on the Fig. 6
parallel flow:

1. runs the flow twice with healthy tool latency, appending run records
   to a fresh ledger — ``repro health`` must exit 0 (no baseline drift);
2. runs it once more through a *delayed* tool wrapper (the injected
   regression) — ``repro health`` must flip to exit 1 with the
   ``tool-duration-drift`` check failing;
3. validates both Prometheus exporters (the ledger-derived
   ``repro_run_*`` series and ``MetricsRegistry.render_prometheus()``)
   against the minimal text-format validator below, apart and as the
   one exposition ``repro ledger export --format prometheus --events``
   concatenates for a scrape;
4. survives a killed ledger writer: on a scratch ledger, two healthy
   runs, then the partial record a writer killed mid-line leaves, then
   two more healthy runs — all four records must read back and
   ``repro health`` must exit 0;
5. measures ledger-write overhead (best-of-N wall time with vs. without
   a ledger attached) and fails when it exceeds ``OVERHEAD_BUDGET``.

The drift gate is structural (an injected 4x slowdown against a tight
sleep-based baseline), so machine speed never flakes the verdict; only
the overhead bound touches clocks, and it compares best-of-N runs of a
sleep-dominated flow, which is stable across loaded CI machines.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import pathlib
import re
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

BRANCHES = 4
LATENCY = 0.04
SLOWDOWN = 4.0
#: Ledger-write overhead budget on the Fig. 6 flow (fraction of wall).
OVERHEAD_BUDGET = 0.05
OVERHEAD_ROUNDS = 4


# ---------------------------------------------------------------------------
# minimal Prometheus text-format validator
# ---------------------------------------------------------------------------
_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"'
_SAMPLE_RE = re.compile(
    rf"^({_METRIC_NAME})(\{{{_LABEL}(?:,{_LABEL})*\}})?"
    r" (-?(?:[0-9]*\.)?[0-9]+(?:[eE][+-]?[0-9]+)?|NaN|[+-]Inf)$")
_TYPE_KINDS = {"counter", "gauge", "summary", "histogram", "untyped"}
_SAMPLE_SUFFIXES = ("_count", "_sum", "_bucket")


def validate_prometheus(text: str) -> list[str]:
    """Check text-format exposition structure; returns problem strings.

    Deliberately minimal: metric-name charset, label syntax, parseable
    values, every sample preceded by exactly one ``# TYPE`` declaration
    of its family, trailing newline.  Not a full openmetrics parser —
    just enough to guarantee a Prometheus scrape would not reject the
    export.
    """
    problems: list[str] = []
    if text and not text.endswith("\n"):
        problems.append("exposition must end with a newline")
    families: dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                problems.append(f"line {number}: malformed TYPE: {line!r}")
                continue
            _, _, name, kind = parts
            if not re.fullmatch(_METRIC_NAME, name):
                problems.append(
                    f"line {number}: bad metric name {name!r}")
            if kind not in _TYPE_KINDS:
                problems.append(f"line {number}: bad kind {kind!r}")
            if name in families:
                problems.append(
                    f"line {number}: duplicate TYPE for {name!r}")
            families[name] = kind
            continue
        if line.startswith("#"):
            continue  # HELP and comments are free-form
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {number}: malformed sample: {line!r}")
            continue
        name = match.group(1)
        base = name
        for suffix in _SAMPLE_SUFFIXES:
            trimmed = name[: -len(suffix)] if name.endswith(suffix) else ""
            if trimmed and trimmed in families:
                base = trimmed
                break
        if base not in families:
            problems.append(
                f"line {number}: sample {name!r} has no TYPE declaration")
    return problems


# ---------------------------------------------------------------------------
# the Fig. 6 workload with an injectable delay
# ---------------------------------------------------------------------------
def make_env(latency: float):
    from conftest import fresh_env
    from repro.execution import encapsulation
    from repro.schema import standard as S

    env = fresh_env()

    def slow_tool(ctx, inputs):
        time.sleep(latency)
        return {t: {"made": t} for t in ctx.output_types}

    env.slow_extractor = env.install_tool(  # type: ignore[attr-defined]
        S.EXTRACTOR, None, name="slow")
    env.registry.register_for_instance(
        env.slow_extractor.instance_id,
        encapsulation("slow", slow_tool))
    return env


def build_branches(env):
    from repro.schema import standard as S

    flow = env.new_flow("fig6")
    for index in range(BRANCHES):
        layout = env.install_data(S.EDITED_LAYOUT, {"i": index})
        netlist = flow.place(S.EXTRACTED_NETLIST)
        flow.expand(netlist)
        unbound_layouts = [n for n in flow.graph.leaves()
                           if n.entity_type == S.LAYOUT
                           and not n.is_bound]
        flow.bind(unbound_layouts[0], layout.instance_id)
        unbound_tools = [n for n in flow.nodes()
                         if n.entity_type == S.EXTRACTOR
                         and not n.is_bound]
        flow.bind(unbound_tools[0], env.slow_extractor.instance_id)
    return flow


def run_once(ledger_path: pathlib.Path | None, latency: float,
             sinks=()) -> float:
    """One parallel Fig. 6 run; returns its wall time in seconds."""
    from repro.execution import MachinePool

    env = make_env(latency)
    if ledger_path is not None:
        env.attach_ledger(ledger_path)
    for sink in sinks:
        env.bus.subscribe(sink)
    executor = env.parallel_executor(pool=MachinePool.local(BRANCHES))
    report = executor.execute(build_branches(env))
    return report.wall_time


def health_exit(root: pathlib.Path) -> int:
    """Exit code of the real ``repro health`` CLI against the ledger."""
    from repro.cli import main as repro_main

    return repro_main(["health", str(root / "ledger.jsonl")])


def torn_ledger_failures() -> list[str]:
    """Step 4: the run after a killed writer cuts its partial record."""
    from repro.errors import ObservabilityError
    from repro.obs import RunLedger

    failures: list[str] = []
    with tempfile.TemporaryDirectory() as scratch:
        root = pathlib.Path(scratch)
        ledger_path = root / "ledger.jsonl"
        for _ in range(2):
            run_once(ledger_path, LATENCY)
        last = ledger_path.read_bytes().splitlines()[-1]
        with open(ledger_path, "ab") as handle:  # killed mid-line
            handle.write(last[:50])
        for _ in range(2):
            run_once(ledger_path, LATENCY)
        try:
            readable = len(RunLedger(ledger_path).records())
        except ObservabilityError as error:
            readable = 0
            failures.append(f"torn ledger unreadable: {error}")
        status = health_exit(root)
    print(f"after a killed ledger writer: {readable} readable records, "
          f"repro health exit {status}")
    if readable != 4:
        failures.append(
            f"expected 4 records around a torn line, found {readable}")
    if status != 0:
        failures.append(
            f"health must pass around a torn line, exited {status}")
    return failures


def measure_overhead() -> tuple[float, float, float]:
    """(without, with, fraction): best-of-N wall times and overhead."""
    with tempfile.TemporaryDirectory() as scratch:
        ledger_path = pathlib.Path(scratch) / "overhead.jsonl"
        bare = min(run_once(None, LATENCY)
                   for _ in range(OVERHEAD_ROUNDS))
        recorded = min(run_once(ledger_path, LATENCY)
                       for _ in range(OVERHEAD_ROUNDS))
    overhead = max(0.0, (recorded - bare) / bare) if bare else 0.0
    return bare, recorded, overhead


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--skip-overhead", action="store_true",
                        help="skip the timing-sensitive overhead bound")
    args = parser.parse_args(argv)

    from repro.cli import main as repro_main
    from repro.obs import (JSONLSink, MetricsRegistry, RunLedger,
                           render_prometheus_ledger)

    failures: list[str] = []
    metrics = MetricsRegistry()
    with tempfile.TemporaryDirectory() as scratch:
        root = pathlib.Path(scratch)
        ledger_path = root / "ledger.jsonl"
        events = JSONLSink(root / "events.jsonl")

        for round_number in (1, 2):
            run_once(ledger_path, LATENCY, (metrics, events))
        healthy = health_exit(root)
        print(f"healthy baseline: repro health exit {healthy}")
        if healthy != 0:
            failures.append(
                f"health must pass an unchanged re-run, exited {healthy}")

        # the injected regression: every tool invocation delayed
        run_once(ledger_path, LATENCY * SLOWDOWN, (metrics, events))
        events.close()
        degraded = health_exit(root)
        print(f"after {SLOWDOWN:.0f}x slowdown: repro health exit "
              f"{degraded}")
        if degraded != 1:
            failures.append(
                f"health must flag a {SLOWDOWN:.0f}x tool slowdown, "
                f"exited {degraded}")

        records = RunLedger(ledger_path).records()
        if len(records) != 3:
            failures.append(
                f"expected 3 ledger records, found {len(records)}")
        ledger_text = render_prometheus_ledger(records)
        for problem in validate_prometheus(ledger_text):
            failures.append(f"ledger exposition: {problem}")
        registry_text = metrics.render_prometheus()
        if not registry_text:
            failures.append("metrics registry exported no families")
        for problem in validate_prometheus(registry_text):
            failures.append(f"registry exposition: {problem}")
        scrape = io.StringIO()
        with contextlib.redirect_stdout(scrape):
            status = repro_main(["ledger", "export", str(root),
                                 "--format", "prometheus",
                                 "--events", str(events.path)])
        if status != 0:
            failures.append(f"repro ledger export exited {status}")
        for problem in validate_prometheus(scrape.getvalue()):
            failures.append(f"ledger export --events: {problem}")
        print(f"prometheus export: {len(ledger_text.splitlines())} "
              f"ledger lines, {len(registry_text.splitlines())} "
              f"registry lines, {len(scrape.getvalue().splitlines())} "
              "lines of ledger export --events validated")

    failures.extend(torn_ledger_failures())

    if not args.skip_overhead:
        bare, recorded, overhead = measure_overhead()
        print(f"ledger overhead: {bare * 1e3:.1f}ms -> "
              f"{recorded * 1e3:.1f}ms (best of {OVERHEAD_ROUNDS}, "
              f"{overhead:.1%})")
        if overhead > OVERHEAD_BUDGET:
            failures.append(
                f"ledger writes cost {overhead:.1%} wall time "
                f"(budget {OVERHEAD_BUDGET:.0%})")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("health smoke check passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
