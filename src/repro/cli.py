"""Command-line interface to a persisted design environment.

A thin, scriptable front end over :mod:`repro.persistence` and the
Hercules session — enough to drive a design from a shell::

    python -m repro init ./proj
    python -m repro info ./proj
    python -m repro browse ./proj Netlist --keyword mux
    python -m repro session ./proj --events run.jsonl \\
        -c "place Performance" -c "expand n0"
    python -m repro run ./proj my-flow --cache reuse
    python -m repro migrate ./proj --to sqlite
    python -m repro history ./proj Performance#0001
    python -m repro stale ./proj
    python -m repro events run.jsonl --type tool_finished
    python -m repro stats ./proj --events run.jsonl
    python -m repro health ./proj
    python -m repro ledger show ./proj --tail 5
    python -m repro ledger compare ./proj 3f2a 9c1b
    python -m repro ledger export ./proj --format prometheus
    python -m repro run ./proj my-flow --profile --trace
    python -m repro profile flamegraph ./proj -o profile.folded
    python -m repro profile queries ./proj
    python -m repro corpus generate ./corpus --seed 7
    python -m repro corpus run ./corpus --executor procpool
    python -m repro corpus export ./corpus/s02-diamond --format triples

Every mutating command saves the environment back to the directory, so
consecutive invocations build one continuous design history — the CLI
equivalent of the paper's persistent framework session.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys
import time
from typing import Any, Callable, Sequence

from .errors import ReproError
from .execution.cache import CACHE_OFF, CACHE_POLICIES
from .execution.context import DesignEnvironment
from .execution.executor import FlowExecutor
from .execution.faults import FaultPlan
from .execution.resilience import ResiliencePolicy
from .execution.shared_memo import SharedDerivationMemo
from .history.consistency import consistency_report
from .history.database import BrowseFilter
from .history.query import dependents_of_type
from .history.store import BACKEND_SQLITE, BACKENDS
from .history.trace import backward_trace
from .obs import (EVENT_TYPES, HealthThresholds, JSONLSink,
                  MetricsRegistry, ProfileAggregate, QueryRecorder,
                  RunLedger, RunRecord, SamplingProfiler, append_profile,
                  critical_path, evaluate_health, export_chrome,
                  find_profile, follow_events, profile_record,
                  read_profiles, read_slow_queries, read_spans, render_json,
                  render_profile, render_prometheus_ledger,
                  render_span_tree, render_timeline, replay_events,
                  replay_into, timeline_model, tool_baselines,
                  validate_chrome_trace, validate_spans)
from .obs.health import DEFAULT_K, DEFAULT_MIN_SAMPLES, DEFAULT_WINDOW
from .persistence import (LEDGER_FILE, MEMO_FILE, PROFILE_FILE,
                          SLOW_QUERY_FILE, TRACE_FILE,
                          load_environment, migrate_environment,
                          save_environment)
from .scenarios import (SHAPES, CorpusSpec, governance_records,
                        history_signature, load_corpus,
                        materialize_governance, materialize_scenario,
                        register_corpus_encapsulations, render_jsonl,
                        signature_digest, spec_from_entry,
                        triples_records, validate_governance,
                        validate_triples, write_corpus)
from .schema.standard import fig1_schema, fig2_schema, odyssey_schema
from .tools import install_standard_tools, register_standard_encapsulations
from .ui.session import HerculesSession

SCHEMAS = {
    "fig1": fig1_schema,
    "fig2": fig2_schema,
    "odyssey": odyssey_schema,
}


def _load(directory: str) -> DesignEnvironment:
    env = load_environment(directory)
    register_standard_encapsulations(env)
    # scenario-corpus environments carry their tool salts in the
    # schema; no-op for standard schemas
    register_corpus_encapsulations(env)
    return env


def cmd_init(args: argparse.Namespace) -> int:
    schema = SCHEMAS[args.schema]()
    env = DesignEnvironment(schema, user=args.user)
    install_standard_tools(env)
    save_environment(env, args.directory, backend=args.backend)
    print(f"initialized {args.directory} with the {args.schema!r} "
          f"schema ({len(env.db)} tool instances installed)")
    return 0


def cmd_migrate(args: argparse.Namespace) -> int:
    if migrate_environment(args.directory, args.to):
        print(f"migrated {args.directory} to the {args.to!r} history "
              "backend")
    else:
        print(f"{args.directory} already uses the {args.to!r} history "
              "backend; nothing to do")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    env = _load(args.directory)
    print(f"environment: {args.directory}")
    print(f"  schema: {env.schema.name} ({len(env.schema)} entities, "
          f"{len(env.schema.dependencies())} dependencies)")
    print(f"  history: {len(env.db)} instances, "
          f"{len(env.db.datastore)} data blobs")
    print(f"  flow catalog: {list(env.flow_catalog.names())}")
    print(f"  tools: {[e.name for e in env.schema.tools()]}")
    return 0


def cmd_browse(args: argparse.Namespace) -> int:
    env = _load(args.directory)
    filters = BrowseFilter(keywords=tuple(args.keyword or ()),
                           user=args.user)
    for instance in env.db.browse(args.entity_type, filters=filters):
        name = instance.name or "-"
        print(f"{instance.instance_id:<28} {instance.user:<10} "
              f"{name}")
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    env = _load(args.directory)
    print(backward_trace(env.db, args.instance).render())
    instance = env.db.get(args.instance)
    if instance.trace_id:
        # join history to the run ledger: the producing run's record
        # carries the same trace id the instance was stamped with
        run = RunLedger(pathlib.Path(args.directory)
                        / LEDGER_FILE).for_trace(instance.trace_id)
        if run is not None:
            print(f"produced by run {run.run_id}:")
            print(f"  {run.render()}")
    if instance.span_id:
        trace_log = pathlib.Path(args.directory) / TRACE_FILE
        if trace_log.exists():
            spans = {s.span_id: s
                     for s in read_spans(trace_log, strict=False)
                     if s.trace_id == instance.trace_id}
            span = spans.get(instance.span_id)
            if span is not None:
                print(f"produced by span {span.span_id} of trace "
                      f"{span.trace_id}:")
                print(f"  {span.render()}")
                parent = spans.get(span.parent_id or "")
                if parent is not None:
                    print(f"  within {parent.render()}")
                return 0
        print(f"produced by span {instance.span_id} of trace "
              f"{instance.trace_id} (trace log not available)")
    return 0


def cmd_uses(args: argparse.Namespace) -> int:
    env = _load(args.directory)
    if args.entity_type:
        rows = dependents_of_type(env.db, args.instance,
                                  args.entity_type)
        for instance in rows:
            print(instance.instance_id)
    else:
        for instance_id in env.db.consumers_of(args.instance):
            print(instance_id)
    return 0


def cmd_stale(args: argparse.Namespace) -> int:
    env = _load(args.directory)
    report = consistency_report(env.db, args.entity_type)
    if not report:
        print("everything is up to date")
        return 0
    for instance_id, reasons in sorted(report.items()):
        print(f"{instance_id}:")
        for reason in reasons:
            print(f"  {reason}")
    return 1  # shell-friendly: stale state is a nonzero exit


def cmd_retrace(args: argparse.Namespace) -> int:
    env = _load(args.directory)
    report = env.retrace(args.instance)
    save_environment(env, args.directory)
    print(f"retraced {args.instance}: created {list(report.created)}")
    return 0


def _run_resilience(args: argparse.Namespace
                    ) -> tuple[ResiliencePolicy | None,
                               FaultPlan | None]:
    """Build the policy/fault plan the ``run`` flags describe."""
    faults = None
    if args.fault_plan:
        faults = FaultPlan.load(args.fault_plan)
    resilience = None
    if args.retries or args.timeout is not None or args.degrade:
        resilience = ResiliencePolicy(
            retries=args.retries,
            timeout=args.timeout,
            degrade=args.degrade,
            # the plan's seed drives the backoff jitter too, so one
            # seed reproduces the whole chaos drill, delays included
            seed=faults.seed if faults is not None else 0)
    return resilience, faults


def _preset(env: DesignEnvironment, args: argparse.Namespace,
            **settings: Any) -> FlowExecutor:
    """The ``--executor`` preset, sized by ``--machines``/``--workers``;
    ``settings`` go to the environment's executor factory."""
    if args.executor == "parallel":
        return env.parallel_executor(machines=args.machines, **settings)
    if args.executor == "scheduled":
        return env.scheduled_executor(machines=args.machines, **settings)
    if args.executor == "procpool":
        return env.process_executor(workers=args.workers, **settings)
    return env.executor(**settings)


def cmd_run(args: argparse.Namespace) -> int:
    if args.executor in ("scheduled", "procpool") and args.target:
        print("error: --target is not supported with "
              f"--executor {args.executor} (invocation-level "
              "scheduling always runs the whole flow)",
              file=sys.stderr)
        return 2
    if args.backend:
        # migrate-then-run: convert the directory first (a no-op when
        # it already uses the requested backend), then load normally
        migrate_environment(args.directory, args.backend)
    env = _load(args.directory)
    sink = None
    if args.events:
        sink = JSONLSink(args.events)
        env.bus.subscribe(sink)
    trace_sink = None
    if args.trace:
        trace_sink = JSONLSink(
            pathlib.Path(args.directory) / TRACE_FILE)
        env.tracer.subscribe(trace_sink)
    profiler = None
    if args.profile or args.profile_memory:
        if args.profile_interval_ms <= 0:
            print("error: --profile-interval-ms must be > 0",
                  file=sys.stderr)
            return 2
        recorder = QueryRecorder(
            slow_log=pathlib.Path(args.directory) / SLOW_QUERY_FILE,
            backend=env.db.backend)
        profiler = SamplingProfiler(
            args.profile_interval_ms / 1000.0,
            track_memory=args.profile_memory)
        profiler.query_recorder = recorder
        env.db.store.set_query_recorder(recorder)
        # every executor the environment hands out below inherits it
        env.profiler = profiler
        profiler.start()
    flow = env.plan_flow(args.flow)
    resilience, faults = _run_resilience(args)
    cache = None if args.cache == "off" else args.cache
    try:
        executor = _preset(env, args, cache=cache, resilience=resilience,
                           faults=faults)
        report = executor.execute(flow, targets=args.target or None,
                                  force=args.force)
    except ReproError as error:
        # Execution failure (as opposed to CLI usage failure, exit 2):
        # the ledger has the error-path record; exit 1 so scripted
        # chaos drills can distinguish "flow failed" from "bad flags".
        print(f"error: run of {args.flow!r} failed: {error}",
              file=sys.stderr)
        return 1
    finally:
        if profiler is not None:
            profiler.stop()
        if sink is not None:
            sink.close()
        if trace_sink is not None:
            trace_sink.close()
    save_environment(env, args.directory)
    print(f"ran {args.flow!r}: {report.runs} tool runs, "
          f"{len(report.created)} instances created, "
          f"{report.cache_hits} cache hits "
          f"({len(report.reused)} instances reused)")
    if args.trace and env.tracer.last_trace_id:
        print(f"  trace {env.tracer.last_trace_id} appended to "
              f"{trace_sink.path}")
    if profiler is not None:
        target = pathlib.Path(args.directory) / PROFILE_FILE
        append_profile(target, profile_record(
            profiler.aggregate, run_id=report.run_id,
            trace_id=env.tracer.last_trace_id if args.trace else "",
            flow=args.flow, executor=args.executor,
            query=profiler.query_recorder.summary() or None))
        print(f"  profile: {profiler.aggregate.samples} stack "
              f"sample(s) @{args.profile_interval_ms:g}ms appended to "
              f"{target}")
    if report.cache_hits:
        print(f"  saved {report.time_saved * 1000.0:.1f}ms and "
              f"{report.bytes_saved} bytes of tool output")
    if report.retries or report.timeouts:
        print(f"  resilience: {report.retries} retries, "
              f"{report.timeouts} timeouts")
    for instance_id in report.created:
        print(f"  created {instance_id}")
    for instance_id in report.reused:
        print(f"  reused  {instance_id}")
    for failure in report.failures:
        print(f"  FAILED  {failure.render()}")
    if report.quarantined:
        print("  quarantined tool types: "
              + ", ".join(report.quarantined))
    # a degraded run that lost invocations is still a failed run to
    # the shell, even though partial results were recorded
    return 1 if report.failures else 0


def cmd_session(args: argparse.Namespace) -> int:
    env = _load(args.directory)
    sink = None
    if args.events:
        sink = JSONLSink(args.events)
        env.bus.subscribe(sink)
    session = HerculesSession(env)
    script = "\n".join(args.command or ())
    if args.script:
        with open(args.script, "r", encoding="utf-8") as handle:
            script = handle.read() + "\n" + script
    try:
        output = session.run_script(script)
    finally:
        if sink is not None:
            sink.close()
    print(output)
    save_environment(env, args.directory)
    return 0


def cmd_shell(args: argparse.Namespace) -> int:
    from .ui.shell import HerculesShell

    env = _load(args.directory)
    shell = HerculesShell(
        env, on_save=lambda e: save_environment(e, args.directory))
    shell.cmdloop()
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from .history.statistics import history_statistics

    env = _load(args.directory)
    stats = history_statistics(env.db)
    cache_summary = None
    memo_path = pathlib.Path(args.directory) / MEMO_FILE
    if memo_path.exists():
        results: dict[str, set[frozenset[tuple[str, str]]]] = {}
        for key, outputs, _ in SharedDerivationMemo(memo_path).poll():
            results.setdefault(key, set()).add(frozenset(outputs))
        cache_summary = {"keys": len(results),
                         "results": sum(map(len, results.values()))}
    records = RunLedger(
        pathlib.Path(args.directory) / LEDGER_FILE).records()
    metrics = None
    if args.events:
        metrics, _ = _replay_metrics(args.events)
    if args.json:
        payload = {
            "history": stats.to_dict(),
            "cache": cache_summary,
            "ledger": {
                "runs": len(records),
                "last": records[-1].to_dict() if records else None,
            },
        }
        if metrics is not None:
            payload["metrics"] = metrics.snapshot()
        print(render_json(payload))
        return 0
    print(stats.render())
    if cache_summary is not None:
        print(f"derivation cache: {cache_summary['keys']} keys, "
              f"{cache_summary['results']} remembered results")
    if records:
        print(f"run ledger: {len(records)} recorded runs, latest:")
        print(f"  {records[-1].render()}")
        last = records[-1]
        if last.workers:
            steals = sum(w.steals for w in last.workers.values())
            respawns = sum(w.respawns for w in last.workers.values())
            print(f"workers (latest run): {len(last.workers)} "
                  f"worker(s), utilization "
                  f"{last.worker_utilization:.0%}, "
                  f"steals={steals}, respawns={respawns}")
            for name in sorted(last.workers):
                print(f"  {name}: {last.workers[name].render()}")
    if metrics is not None:
        print(metrics.render())
    return 0


def _event_filter(args: argparse.Namespace
                  ) -> "Callable[..., bool] | None":
    """Shared --type/--flow/--tool/--since predicate; None = bad args."""
    wanted = set(args.type) if args.type else None
    if wanted is not None:
        unknown = wanted - EVENT_TYPES
        if unknown:
            print(f"error: unknown event type(s) {sorted(unknown)}; "
                  f"known: {sorted(EVENT_TYPES)}", file=sys.stderr)
            return None

    def keep(event: object) -> bool:
        if wanted is not None and event.event_type not in wanted:
            return False
        if args.flow and event.flow != args.flow:
            return False
        if args.tool and event.tool_type != args.tool:
            return False
        if args.since is not None and event.timestamp < args.since:
            return False
        return True

    return keep


def _follow_events_cli(args: argparse.Namespace,
                       keep: "Callable[..., bool]") -> int:
    if args.replay or args.tail is not None:
        print("error: --follow cannot be combined with --replay "
              "or --tail", file=sys.stderr)
        return 2
    if args.poll <= 0:
        print(f"error: --poll must be > 0, got {args.poll}",
              file=sys.stderr)
        return 2
    stop = None
    if args.duration is not None:
        deadline = time.monotonic() + args.duration
        stop = lambda: time.monotonic() >= deadline  # noqa: E731
    try:
        for event in follow_events(args.logfile,
                                   poll_interval=args.poll,
                                   stop=stop):
            if not keep(event):
                continue
            print(render_json(event.to_dict()) if args.json
                  else event.render(), flush=True)
    except KeyboardInterrupt:
        return 0
    return 0


def cmd_events(args: argparse.Namespace) -> int:
    keep = _event_filter(args)
    if keep is None:
        return 2
    if args.follow:
        # a missing logfile is fine here: follow waits for the first
        # write, the usual way to watch an environment about to run
        return _follow_events_cli(args, keep)
    if args.replay:
        metrics, count = _replay_metrics(args.logfile, keep)
        print(f"replayed {count} events")
        print(metrics.render())
        return 0
    if args.tail is not None and args.tail < 0:
        print(f"error: --tail must be >= 0, got {args.tail}",
              file=sys.stderr)
        return 2
    # lenient: a truncated trailing line (killed writer) is tolerated
    selected = [e for e in replay_events(args.logfile, strict=False)
                if keep(e)]
    if args.tail is not None:
        selected = selected[-args.tail:] if args.tail else []
    for event in selected:
        if args.json:
            # same canonical serializer as ledger records and
            # `repro stats --json`: sorted keys, one object per line
            print(render_json(event.to_dict()))
        else:
            print(event.render())
    return 0


def _replay_metrics(path: str, keep=lambda event: True
                    ) -> tuple[MetricsRegistry, int]:
    """Metrics replayed from an event log, and the events replayed; a
    torn last line (a killed writer) is dropped, as by every log read."""
    metrics = MetricsRegistry()
    events = replay_events(path, strict=False)
    return metrics, replay_into((e for e in events if keep(e)), metrics)


def _log_path(path: str, name: str) -> pathlib.Path:
    """Accept either a log file or the environment directory that holds
    it under ``name``."""
    candidate = pathlib.Path(path)
    if candidate.is_dir():
        return candidate / name
    return candidate


def _thresholds(args: argparse.Namespace) -> HealthThresholds:
    return HealthThresholds(window=args.window, k=args.k,
                            min_samples=args.min_samples)


def cmd_health(args: argparse.Namespace) -> int:
    ledger = RunLedger(_log_path(args.path, LEDGER_FILE))
    records = ledger.records()
    thresholds = _thresholds(args)
    report = evaluate_health(records, thresholds=thresholds)
    if args.json:
        print(render_json(report.to_dict()))
        return report.exit_code
    print(report.render())
    if args.baselines and len(records) > 1:
        baselines = tool_baselines(
            list(records[:-1]), window=thresholds.window,
            k=thresholds.k)
        if baselines:
            print("baselines:")
            for tool in sorted(baselines):
                print(f"  {baselines[tool].render()}")
    return report.exit_code


def cmd_ledger(args: argparse.Namespace) -> int:
    ledger = RunLedger(_log_path(args.path, LEDGER_FILE))
    records = ledger.records()
    if args.ledger_command == "show":
        if args.flow:
            records = tuple(r for r in records if r.flow == args.flow)
        if args.tail is not None:
            if args.tail < 0:
                print(f"error: --tail must be >= 0, got {args.tail}",
                      file=sys.stderr)
                return 2
            records = records[-args.tail:] if args.tail else ()
        for record in records:
            print(render_json(record.to_dict()) if args.json
                  else record.render())
        return 0
    if args.ledger_command == "compare":
        return _ledger_compare(ledger.find(args.run_a),
                               ledger.find(args.run_b))
    # export
    if args.format == "json":
        text = "\n".join(render_json(r.to_dict()) for r in records)
        text = text + "\n" if text else ""
    else:
        text = render_prometheus_ledger(records)
        if args.events:
            text += _replay_metrics(args.events)[0].render_prometheus()
    if args.output:
        pathlib.Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {len(records)} ledger records to {args.output} "
              f"({args.format} format)")
    else:
        print(text, end="")
    return 0


def _ledger_compare(before: RunRecord, after: RunRecord) -> int:
    """Side-by-side diff of two runs (the regression-hunt view)."""

    def delta(label: str, old: float, new: float,
              scale: float = 1e3, unit: str = "ms") -> str:
        change = ""
        if old > 0:
            change = f" ({(new - old) / old:+.1%})"
        return (f"  {label}: {old * scale:.2f}{unit} -> "
                f"{new * scale:.2f}{unit}{change}")

    print(f"comparing {before.run_id} (flow {before.flow}, "
          f"{before.executor}) -> {after.run_id} (flow {after.flow}, "
          f"{after.executor})")
    print(delta("wall_time", before.wall_time, after.wall_time))
    print(delta("serial_time", before.serial_time, after.serial_time))
    if before.queue_wait or after.queue_wait:
        print(delta("queue_wait", before.queue_wait, after.queue_wait))
    print(f"  parallelism: {before.parallelism:.2f}x -> "
          f"{after.parallelism:.2f}x")
    print(f"  tool runs: {before.runs} -> {after.runs}")
    print(f"  created: {before.created} -> {after.created}, "
          f"reused: {before.reused} -> {after.reused}")
    if before.cache_lookups or after.cache_lookups:
        print(f"  cache hits: {before.cache_hits}/"
              f"{before.cache_lookups} -> "
              f"{after.cache_hits}/{after.cache_lookups}")
    for tool in sorted(set(before.tools) | set(after.tools)):
        old = before.tools.get(tool)
        new = after.tools.get(tool)
        if old is None or new is None:
            status = "added" if old is None else "removed"
            print(f"  tool {tool}: {status}")
            continue
        print(delta(f"tool {tool} mean", old.duration.mean,
                    new.duration.mean))
    if before.errors or after.errors:
        print(f"  errors: {before.errors} -> {after.errors}"
              + (f" ({after.error})" if after.error else ""))
    return 0


def cmd_schema(args: argparse.Namespace) -> int:
    env = _load(args.directory)
    from .core.render import schema_to_dot

    print(schema_to_dot(env.schema))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    spans = list(read_spans(_log_path(args.path, TRACE_FILE), strict=False))
    if not spans:
        print("no spans recorded", file=sys.stderr)
        return 2
    if args.trace_command == "show":
        print(render_span_tree(spans, args.trace_id))
        return 0
    if args.trace_command == "critical-path":
        print(critical_path(spans, args.trace_id).render())
        return 0
    if args.trace_command == "timeline":
        if args.json:
            print(render_json(timeline_model(spans, args.trace_id)))
        else:
            print(render_timeline(spans, args.trace_id,
                                  width=args.width))
        return 0
    # export
    problems = validate_spans(spans)
    if problems:
        for problem in problems:
            print(f"warning: {problem}", file=sys.stderr)
    payload = export_chrome(spans, args.trace_id)
    broken = validate_chrome_trace(payload)
    if broken:
        for problem in broken:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    text = json.dumps(payload, indent=1, sort_keys=True)
    if args.output:
        pathlib.Path(args.output).write_text(text + "\n",
                                             encoding="utf-8")
        print(f"wrote {len(payload['traceEvents'])} trace events to "
              f"{args.output} (open in https://ui.perfetto.dev)")
    else:
        print(text)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    if args.profile_command == "queries":
        env = _load(args.directory)
        store = env.db.store
        audit = getattr(store, "query_plan_audit", None)
        if audit is None:
            print("error: the query-plan audit requires the sqlite "
                  "history backend (run 'repro migrate "
                  f"{args.directory} --to sqlite' first; current "
                  f"backend: {env.db.backend})", file=sys.stderr)
            return 2
        regressions = 0
        audits = audit()
        for entry in audits:
            shape = "INDEX" if entry["uses_index"] else (
                "SCAN" if entry["full_scan"] else "-")
            note = ""
            if entry["expect_index"] and entry["full_scan"]:
                note = "  <-- full-scan regression"
                regressions += 1
            print(f"{entry['name']:<26} {shape:<6} "
                  f"{entry['fingerprint']}  {entry['statement']}{note}")
        indexed = sum(1 for entry in audits if entry["uses_index"])
        scans = sum(1 for entry in audits if entry["full_scan"])
        print(f"{len(audits)} statements audited: {indexed} indexed, "
              f"{scans} full scan(s), {regressions} regression(s)")
        slow_log = pathlib.Path(args.directory) / SLOW_QUERY_FILE
        if slow_log.exists():
            slow = len(read_slow_queries(slow_log))
            print(f"slow-query log: {slow} entries in {slow_log}")
        return 1 if regressions else 0
    record = find_profile(read_profiles(_log_path(args.path, PROFILE_FILE)),
                          args.run)
    if args.profile_command == "show":
        print(render_profile(record))
        return 0
    if args.profile_command == "flamegraph":
        text = ProfileAggregate.from_dict(record).collapsed()
        if args.output:
            pathlib.Path(args.output).write_text(
                text + ("\n" if text else ""), encoding="utf-8")
            print(f"wrote {len(text.splitlines())} collapsed-stack "
                  f"line(s) to {args.output}")
        else:
            print(text)
        return 0
    # export: the raw record, one JSON object
    print(render_json(record))
    return 0


def _corpus_generate(args: argparse.Namespace) -> int:
    corpus = CorpusSpec(
        seed=args.seed, width=args.width, depth=args.depth,
        fanout=args.fanout, per_shape=args.per_shape,
        shapes=tuple(args.shapes) if args.shapes else SHAPES)
    target = write_corpus(corpus, args.directory)
    manifest = load_corpus(target)
    print(f"wrote {target}: {len(manifest['scenarios'])} scenario(s), "
          f"digest {manifest['digest'][:16]}")
    return 0


def _corpus_run(args: argparse.Namespace) -> int:
    root = pathlib.Path(args.directory)
    manifest = load_corpus(root)
    entries = manifest["scenarios"]
    if args.scenario:
        known = {entry["scenario_id"] for entry in entries}
        missing = sorted(set(args.scenario) - known)
        if missing:
            print(f"error: no such scenario(s): {', '.join(missing)} "
                  f"(corpus has {', '.join(sorted(known))})",
                  file=sys.stderr)
            return 2
        entries = [entry for entry in entries
                   if entry["scenario_id"] in set(args.scenario)]
    cache = None if args.cache == CACHE_OFF else args.cache
    failures = 0
    for entry in entries:
        spec = spec_from_entry(entry)
        scenario_dir = root / entry["scenario_id"]
        # every invocation re-materializes the scenario from its spec,
        # so runs are deterministic by construction: re-running never
        # re-derives on top of an existing history
        if scenario_dir.exists():
            shutil.rmtree(scenario_dir)
        env = materialize_scenario(spec)
        save_environment(env, scenario_dir, backend=args.backend)
        env = _load(str(scenario_dir))
        flow = env.flow_catalog.select(entry["flow"])
        report = _preset(env, args, cache=cache).execute(flow)
        save_environment(env, scenario_dir)
        digest = signature_digest(history_signature(env))
        expected = entry["expected"]
        ok = (digest == expected["history_digest"]
              and report.runs == expected["runs"]
              and not report.failures)
        print(f"  {entry['scenario_id']}: {report.runs} tool runs, "
              f"digest {digest[:16]} "
              f"[{'ok' if ok else 'MISMATCH'}]")
        if not ok:
            failures += 1
            if digest != expected["history_digest"]:
                print(f"    expected digest "
                      f"{expected['history_digest'][:16]}",
                      file=sys.stderr)
            if report.runs != expected["runs"]:
                print(f"    expected {expected['runs']} tool runs",
                      file=sys.stderr)
            for failure in report.failures:
                print(f"    FAILED {failure.render()}",
                      file=sys.stderr)
    verdict = ("all digests match the manifest" if not failures
               else f"{failures} scenario(s) diverged")
    print(f"ran {len(entries)} scenario(s) with the {args.executor} "
          f"executor: {verdict}")
    return 1 if failures else 0


def _corpus_export(args: argparse.Namespace) -> int:
    env = _load(args.directory)
    if args.format == "governance":
        runs = env.ledger.records() if env.ledger is not None else ()
        records = governance_records(env, runs)
        problems = validate_governance(
            materialize_governance(records), env, runs)
    else:
        records = triples_records(env)
        problems = validate_triples(records, env)
    for problem in problems:
        print(f"error: export validation: {problem}", file=sys.stderr)
    if problems:
        return 1
    text = render_jsonl(records)
    if args.output:
        pathlib.Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {len(records)} {args.format} record(s) to "
              f"{args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    if args.corpus_command == "generate":
        return _corpus_generate(args)
    if args.corpus_command == "run":
        return _corpus_run(args)
    return _corpus_export(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamically defined flows: command-line front end")
    commands = parser.add_subparsers(dest="command", required=True)

    init = commands.add_parser("init", help="create a new environment")
    init.add_argument("directory")
    init.add_argument("--schema", choices=sorted(SCHEMAS),
                      default="odyssey")
    init.add_argument("--user", default="designer")
    init.add_argument("--backend", choices=sorted(BACKENDS),
                      default=None,
                      help="history storage backend: whole-history "
                           "'json' (default) or indexed 'sqlite'")
    init.set_defaults(fn=cmd_init)

    migrate = commands.add_parser(
        "migrate", help="convert the history storage backend in place")
    migrate.add_argument("directory")
    migrate.add_argument("--to", choices=sorted(BACKENDS),
                         default=BACKEND_SQLITE,
                         help="target backend (default sqlite); "
                              "idempotent — converting to the current "
                              "backend is a no-op")
    migrate.set_defaults(fn=cmd_migrate)

    info = commands.add_parser("info", help="environment summary")
    info.add_argument("directory")
    info.set_defaults(fn=cmd_info)

    browse = commands.add_parser("browse", help="list instances")
    browse.add_argument("directory")
    browse.add_argument("entity_type")
    browse.add_argument("--keyword", action="append")
    browse.add_argument("--user")
    browse.set_defaults(fn=cmd_browse)

    history = commands.add_parser("history",
                                  help="derivation trace of an instance")
    history.add_argument("directory")
    history.add_argument("instance")
    history.set_defaults(fn=cmd_history)

    uses = commands.add_parser("uses",
                               help="forward chaining from an instance")
    uses.add_argument("directory")
    uses.add_argument("instance")
    uses.add_argument("entity_type", nargs="?")
    uses.set_defaults(fn=cmd_uses)

    stale = commands.add_parser("stale", help="consistency report")
    stale.add_argument("directory")
    stale.add_argument("entity_type", nargs="?")
    stale.set_defaults(fn=cmd_stale)

    retrace = commands.add_parser("retrace",
                                  help="re-derive a stale instance")
    retrace.add_argument("directory")
    retrace.add_argument("instance")
    retrace.set_defaults(fn=cmd_retrace)

    run = commands.add_parser(
        "run", help="execute a cataloged flow (optionally cached)")
    run.add_argument("directory")
    run.add_argument("flow", help="a flow name from the catalog "
                                  "(see 'repro info')")
    run.add_argument("--target", action="append",
                     help="only produce these nodes (repeatable)")
    run.add_argument("--force", action="store_true",
                     help="recompute even already-produced nodes")
    run.add_argument("--backend", choices=sorted(BACKENDS),
                     default=None,
                     help="migrate the environment to this history "
                          "backend before running (no-op when it "
                          "already matches)")
    run.add_argument("--cache", choices=sorted(CACHE_POLICIES),
                     default=CACHE_OFF,
                     help="re-execution cache policy: reuse remembered "
                          "results ('reuse'), also index new ones "
                          "('readwrite'), or neither ('off', default)")
    run.add_argument("--events",
                     help="record execution events to this JSONL log")
    run.add_argument("--trace", action="store_true",
                     help="record hierarchical spans to the "
                          "environment's trace.jsonl (inspect with "
                          "'repro trace')")
    run.add_argument("--executor",
                     choices=["sequential", "parallel", "scheduled",
                              "procpool"],
                     default="sequential",
                     help="sequential (default), parallel disjoint "
                          "branches, invocation-level scheduling, or "
                          "real multi-core worker processes "
                          "('procpool')")
    run.add_argument("--machines", type=int, default=2,
                     help="machine pool size for the parallel/"
                          "scheduled executors (default 2)")
    run.add_argument("--workers", type=int, default=2,
                     help="worker process count for --executor "
                          "procpool (default 2)")
    run.add_argument("--retries", type=int, default=0,
                     help="retry transiently failing tool invocations "
                          "up to N times with deterministic backoff "
                          "(default 0: fail on first error)")
    run.add_argument("--timeout", type=float, default=None,
                     help="per-invocation watchdog budget in seconds "
                          "(timed-out attempts count as transient "
                          "failures and are retried)")
    run.add_argument("--fault-plan",
                     help="JSON file scripting deterministic tool "
                          "faults (chaos drills; see DESIGN.md §10)")
    run.add_argument("--profile", action="store_true",
                     help="sample in-tool stacks during the run and "
                          "append a profile record to the "
                          "environment's profiles.jsonl (inspect with "
                          "'repro profile')")
    run.add_argument("--profile-interval-ms", type=float, default=5.0,
                     help="with --profile: sampling interval in "
                          "milliseconds (default 5)")
    run.add_argument("--profile-memory", action="store_true",
                     help="with --profile: also track per-invocation "
                          "tracemalloc high-water marks (implies "
                          "--profile; expensive — tracemalloc "
                          "multiplies allocation-heavy tool cost)")
    run.add_argument("--degrade", action="store_true",
                     help="on unrecoverable invocation failure, record "
                          "it and keep executing independent work "
                          "instead of aborting (exit 1 if anything "
                          "was lost)")
    run.set_defaults(fn=cmd_run)

    session = commands.add_parser(
        "session", help="run Hercules commands against the environment")
    session.add_argument("directory")
    session.add_argument("-c", "--command", action="append",
                         help="a session command (repeatable)")
    session.add_argument("--script", help="file of session commands")
    session.add_argument("--events",
                         help="record execution events to this JSONL log")
    session.set_defaults(fn=cmd_session)

    shell = commands.add_parser(
        "shell", help="interactive Hercules prompt over the environment")
    shell.add_argument("directory")
    shell.set_defaults(fn=cmd_shell)

    stats = commands.add_parser("stats",
                                help="history statistics report")
    stats.add_argument("directory")
    stats.add_argument("--events",
                       help="also summarize metrics from a JSONL event "
                            "log (see 'repro events')")
    stats.add_argument("--json", action="store_true",
                       help="machine-readable output (one JSON object: "
                            "history, cache, ledger, metrics)")
    stats.set_defaults(fn=cmd_stats)

    health = commands.add_parser(
        "health", help="judge the latest recorded run against its "
                       "ledger baseline (exit 1 on any failing check)")
    health.add_argument("path",
                        help="an environment directory or a ledger "
                             "JSONL file")
    health.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                        help="baseline window: how many prior runs "
                             "feed the EWMA/MAD baselines "
                             f"(default {DEFAULT_WINDOW})")
    health.add_argument("--k", type=float, default=DEFAULT_K,
                        help="drift gate in sigma-equivalent MADs "
                             f"above the median (default {DEFAULT_K})")
    health.add_argument("--min-samples", type=int,
                        default=DEFAULT_MIN_SAMPLES,
                        help="baseline runs required before a check "
                             "may gate "
                             f"(default {DEFAULT_MIN_SAMPLES})")
    health.add_argument("--baselines", action="store_true",
                        help="also print the per-tool baselines")
    health.add_argument("--json", action="store_true",
                        help="machine-readable health report")
    health.set_defaults(fn=cmd_health)

    ledger = commands.add_parser(
        "ledger", help="inspect the longitudinal run ledger "
                       "(one record per executed flow)")
    ledger_commands = ledger.add_subparsers(dest="ledger_command",
                                            required=True)
    show = ledger_commands.add_parser(
        "show", help="list recorded runs, oldest first")
    show.add_argument("path",
                      help="an environment directory or a ledger "
                           "JSONL file")
    show.add_argument("--flow", help="keep only runs of this flow")
    show.add_argument("--tail", type=int,
                      help="show only the last N matching runs")
    show.add_argument("--json", action="store_true",
                      help="print raw JSON records instead of the "
                           "rendered form")
    show.set_defaults(fn=cmd_ledger)
    compare = ledger_commands.add_parser(
        "compare", help="diff two recorded runs (unambiguous run-id "
                        "prefixes accepted)")
    compare.add_argument("path",
                         help="an environment directory or a ledger "
                              "JSONL file")
    compare.add_argument("run_a", help="baseline run id")
    compare.add_argument("run_b", help="run id to compare against it")
    compare.set_defaults(fn=cmd_ledger)
    export = ledger_commands.add_parser(
        "export", help="export the ledger for external tooling")
    export.add_argument("path",
                        help="an environment directory or a ledger "
                             "JSONL file")
    export.add_argument("--format", choices=["prometheus", "json"],
                        default="prometheus",
                        help="Prometheus text exposition format "
                             "(default) or one JSON object per line")
    export.add_argument("--events",
                        help="with --format prometheus: also replay "
                             "this JSONL event log into a metrics "
                             "registry and append its families")
    export.add_argument("-o", "--output",
                        help="write to this file instead of stdout")
    export.set_defaults(fn=cmd_ledger)

    events = commands.add_parser(
        "events", help="tail/filter/replay a JSONL execution event log")
    events.add_argument("logfile")
    events.add_argument("--type", action="append",
                        help="keep only this event type (repeatable)")
    events.add_argument("--flow", help="keep only events of this flow")
    events.add_argument("--tool",
                        help="keep only events of this tool type")
    events.add_argument("--tail", type=int,
                        help="show only the last N matching events")
    events.add_argument("--json", action="store_true",
                        help="print raw JSON lines instead of the "
                             "rendered form")
    events.add_argument("--since", type=float,
                        help="keep only events with timestamp >= this "
                             "(same clock the log was recorded with)")
    events.add_argument("--replay", action="store_true",
                        help="replay matching events into a metrics "
                             "registry and print the summary")
    events.add_argument("--follow", action="store_true",
                        help="tail mode: wait for the log (it may not "
                             "exist yet) and print matching events as "
                             "a live run appends them")
    events.add_argument("--poll", type=float, default=0.5,
                        help="with --follow: poll interval in seconds "
                             "(default 0.5)")
    events.add_argument("--duration", type=float,
                        help="with --follow: stop after this many "
                             "seconds (default: follow until ^C)")
    events.set_defaults(fn=cmd_events)

    trace = commands.add_parser(
        "trace", help="inspect a recorded span trace "
                      "(see 'repro run --trace')")
    trace_commands = trace.add_subparsers(dest="trace_command",
                                          required=True)
    for name, description in (
            ("show", "print the span tree of a trace"),
            ("critical-path",
             "longest cost-weighted dependency chain with per-task "
             "slack"),
            ("timeline",
             "ASCII Gantt chart: one row per execution lane (procpool "
             "worker or scheduler machine)"),
            ("export", "export a trace for external viewers")):
        sub = trace_commands.add_parser(name, help=description)
        sub.add_argument("path",
                         help="a trace JSONL file or an environment "
                              "directory containing trace.jsonl")
        sub.add_argument("--trace-id",
                         help="select a trace (default: the latest "
                              "recorded run)")
        if name == "timeline":
            sub.add_argument("--width", type=int, default=60,
                             help="chart width in columns "
                                  "(default 60)")
            sub.add_argument("--json", action="store_true",
                             help="emit the lane/interval model as "
                                  "one JSON object instead of the "
                                  "ASCII chart")
        if name == "export":
            sub.add_argument("--format", choices=["chrome"],
                             default="chrome",
                             help="output format: Chrome trace-event "
                                  "JSON, loadable in Perfetto "
                                  "(default)")
            sub.add_argument("-o", "--output",
                             help="write to this file instead of "
                                  "stdout")
        sub.set_defaults(fn=cmd_trace)

    profile = commands.add_parser(
        "profile", help="inspect recorded sampling profiles and "
                        "history-query observability "
                        "(see 'repro run --profile')")
    profile_commands = profile.add_subparsers(dest="profile_command",
                                              required=True)
    for name, description in (
            ("show", "per-tool self-time summary of one recorded "
                     "profile"),
            ("flamegraph", "collapsed-stack output for flamegraph.pl "
                           "or speedscope"),
            ("queries", "EXPLAIN QUERY PLAN index audit of the sqlite "
                        "history backend plus the slow-query log "
                        "(exit 1 on a full-scan regression)"),
            ("export", "raw JSON of one recorded profile")):
        sub = profile_commands.add_parser(name, help=description)
        if name == "queries":
            sub.add_argument("directory",
                             help="an environment directory using the "
                                  "sqlite history backend")
        else:
            sub.add_argument("path",
                             help="a profiles JSONL file or an "
                                  "environment directory containing "
                                  "profiles.jsonl")
            sub.add_argument("--run",
                             help="select a run id (unambiguous "
                                  "prefixes accepted; default: the "
                                  "latest profile)")
        if name == "flamegraph":
            sub.add_argument("-o", "--output",
                             help="write to this file instead of "
                                  "stdout")
        sub.set_defaults(fn=cmd_profile)

    corpus = commands.add_parser(
        "corpus", help="seeded scenario corpora: deterministic "
                       "generator, cross-executor runner, "
                       "governance/triples exports (DESIGN.md §15)")
    corpus_commands = corpus.add_subparsers(dest="corpus_command",
                                            required=True)
    generate = corpus_commands.add_parser(
        "generate", help="write a corpus.v1 manifest; the same seed "
                         "regenerates byte-identical output")
    generate.add_argument("directory",
                          help="corpus directory (created if missing)")
    generate.add_argument("--seed", type=int, default=0,
                          help="corpus seed (default 0)")
    generate.add_argument("--width", type=int, default=2,
                          help="branch/lane count for independent and "
                               "pipeline shapes (default 2)")
    generate.add_argument("--depth", type=int, default=2,
                          help="chain length for chain, diamond and "
                               "pipeline shapes (default 2)")
    generate.add_argument("--fanout", type=int, default=2,
                          help="fork count for the fork_join shape "
                               "(default 2, minimum 2)")
    generate.add_argument("--per-shape", type=int, default=1,
                          dest="per_shape",
                          help="scenarios per dependency shape "
                               "(default 1)")
    generate.add_argument("--shape", action="append", dest="shapes",
                          choices=list(SHAPES),
                          help="restrict to these shapes (repeatable; "
                               "default: all five)")
    generate.set_defaults(fn=cmd_corpus)
    corpus_run = corpus_commands.add_parser(
        "run", help="materialize + execute the corpus scenarios and "
                    "check history digests against the manifest")
    corpus_run.add_argument("directory",
                            help="a directory holding corpus.json")
    corpus_run.add_argument("--executor",
                            choices=["sequential", "parallel",
                                     "scheduled", "procpool"],
                            default="sequential",
                            help="executor to drive every scenario "
                                 "with (default sequential)")
    corpus_run.add_argument("--machines", type=int, default=2,
                            help="machine pool size for the parallel/"
                                 "scheduled executors (default 2)")
    corpus_run.add_argument("--workers", type=int, default=2,
                            help="worker process count for --executor "
                                 "procpool (default 2)")
    corpus_run.add_argument("--cache", choices=sorted(CACHE_POLICIES),
                            default=CACHE_OFF,
                            help="re-execution cache policy "
                                 "(default off)")
    corpus_run.add_argument("--backend", choices=sorted(BACKENDS),
                            default=None,
                            help="history backend for the scenario "
                                 "environments (default: json)")
    corpus_run.add_argument("--scenario", action="append",
                            help="only run these scenario ids "
                                 "(repeatable; default: all)")
    corpus_run.set_defaults(fn=cmd_corpus)
    corpus_export = corpus_commands.add_parser(
        "export", help="export a saved environment's runs + history "
                       "as a governance graph or ontology triples")
    corpus_export.add_argument("directory",
                               help="a saved environment directory "
                                    "(e.g. one corpus scenario)")
    corpus_export.add_argument("--format",
                               choices=["governance", "triples"],
                               default="governance",
                               help="cg.v1 governance JSONL (default) "
                                    "or subject/predicate/object "
                                    "triples")
    corpus_export.add_argument("-o", "--output",
                               help="write to this file instead of "
                                    "stdout")
    corpus_export.set_defaults(fn=cmd_corpus)

    schema = commands.add_parser("schema",
                                 help="dump the schema as Graphviz DOT")
    schema.add_argument("directory")
    schema.set_defaults(fn=cmd_schema)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream closed the pipe mid-print (`repro events | head`):
        # exit quietly like any unix filter.  Point stdout at devnull so
        # the interpreter's shutdown flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
