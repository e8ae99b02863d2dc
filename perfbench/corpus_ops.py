"""The corpus workloads and the op each of them times.

One op repeats what ``repro run <dir> main`` does, through the same
public calls in the same order, without the printing: load the
environment, register the standard and corpus encapsulations, plan the
catalogued flow, execute it with one executor, save the environment.
Corpus generation, ``materialize_scenario`` and the first save are
set-up.  Every op is checked against the corpus manifest.
"""

from __future__ import annotations

import pathlib
import shutil
import sys
import time
import traceback
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable

from repro.execution.cache import CACHE_OFF, CACHE_READWRITE, CACHE_REUSE
from repro.execution.encapsulation import ToolContext, encapsulation
from repro.history.store import BACKEND_JSON, BACKEND_SQLITE
from repro.persistence import (HISTORY_FILE, HISTORY_SQLITE_FILE,
                               load_environment, save_environment)
from repro.scenarios import (MAIN_FLOW, SHAPES, CorpusSpec,
                             generate_corpus, history_signature,
                             materialize_scenario,
                             register_corpus_encapsulations, salt_of,
                             signature_digest, spec_from_entry,
                             synthetic_tool)
from repro.tools import register_standard_encapsulations

from spans import SpanRecorder

#: procpool workers; the benchmark host is sized for two cores
WORKERS = 2
#: share of a run's measured seconds given to further timed set-ups,
#: interleaved between cycles; ``setup_s`` is the fastest of all of
#: them.  The host's speed changes within seconds, so set-ups spread
#: over the whole run sample the same host states as the ops do.
SETUP_SHARE = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: tuple[str, ...]
    width: int
    depth: int
    fanout: int
    backend: str
    cache: str
    procpool: bool = False
    #: forced ``readwrite`` runs that grow each history before timing;
    #: with none, every op runs on a fresh copy of its scenario
    grow_runs: int = 0
    #: fixed wait added to every synthetic tool body (seconds)
    busy_s: float = 0.0


# fork_join must stay at fanout <= 10: see NOTES.md, "Fanout limit".
WORKLOADS = {
    "ingest": Workload("ingest", SHAPES, width=8, depth=16, fanout=10,
                       backend=BACKEND_JSON, cache=CACHE_READWRITE),
    "rerun_deep": Workload("rerun_deep", SHAPES, width=4, depth=8,
                           fanout=8, backend=BACKEND_SQLITE,
                           cache=CACHE_REUSE, grow_runs=32),
    "pool_busy": Workload("pool_busy", ("independent", "fork_join",
                                        "pipeline"),
                          width=8, depth=16, fanout=10,
                          backend=BACKEND_SQLITE, cache=CACHE_OFF,
                          procpool=True, busy_s=0.005),
}


def busy_tool(ctx: ToolContext, inputs: dict[str, Any]) -> Any:
    """The corpus tool after a fixed wait, like an external CAD tool."""
    time.sleep(float(ctx.options["busy_s"]))
    return synthetic_tool(ctx, inputs)


def register_busy_tools(env: Any, busy_s: float) -> None:
    """Re-register every salted tool as :func:`busy_tool`.

    Outputs are unchanged, so history digests still equal the manifest.
    """
    for entity in env.schema.tools():
        salt = salt_of(entity.description)
        if salt is not None:
            env.registry.register(entity.name, encapsulation(
                f"busy-{entity.name}", busy_tool, salt=salt,
                busy_s=busy_s))


def _no_span(name: str) -> AbstractContextManager[Any]:
    return nullcontext()


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    template: pathlib.Path
    runs: int
    hits: int
    digest: str


@dataclass
class OpResult:
    seconds: float
    ok: bool
    invocations: int = 0
    serial_s: float = 0.0
    wall_s: float = 0.0
    queue_wait_s: float = 0.0
    hits: int = 0
    misses: int = 0
    invalidated: int = 0
    history_bytes: int = 0
    instances: int = 0


def _history_bytes(directory: pathlib.Path) -> int:
    names = (HISTORY_FILE, HISTORY_SQLITE_FILE,
             HISTORY_SQLITE_FILE + "-wal")
    return sum((directory / name).stat().st_size for name in names
               if (directory / name).exists())


class CorpusBench:
    """Set-up and ops of one workload in a private work directory."""

    def __init__(self, workload: Workload, seed: int,
                 work: pathlib.Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.scenarios: list[Scenario] = []
        self.setup_s: list[float] = []
        self.materialize_s: list[float] = []
        #: seconds spent growing the histories, after set-up
        self.grow_s = 0.0
        self._ops = 0

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def _set_up_once(self, target: pathlib.Path) -> dict[str, Any]:
        """Generate, materialize and first-save the corpus, timed."""
        workload = self.workload
        materialize = 0.0
        started = time.perf_counter()
        manifest = generate_corpus(CorpusSpec(
            seed=self.seed, width=workload.width, depth=workload.depth,
            fanout=workload.fanout, shapes=workload.shapes))
        for entry in manifest["scenarios"]:
            begun = time.perf_counter()
            env = materialize_scenario(spec_from_entry(entry))
            materialize += time.perf_counter() - begun
            save_environment(env, target / entry["scenario_id"],
                             backend=workload.backend)
        self.setup_s.append(time.perf_counter() - started)
        self.materialize_s.append(materialize)
        return manifest

    def set_up_again(self) -> float:
        """One more timed set-up, thrown away; return its seconds."""
        self._set_up_once(self.work / "setup-extra")
        shutil.rmtree(self.work / "setup-extra")
        return self.setup_s[-1]

    def set_up(self) -> None:
        """Set up the ops' templates (timed), then grow their histories."""
        templates = self.work / "setup"
        manifest = self._set_up_once(templates)
        for entry in manifest["scenarios"]:
            template = templates / entry["scenario_id"]
            expected = entry["expected"]
            if self.workload.grow_runs:
                started = time.perf_counter()
                digest = self._grow(template)
                self.grow_s += time.perf_counter() - started
                scenario = Scenario(entry["scenario_id"], template, 0,
                                    expected["runs"], digest)
            else:
                scenario = Scenario(entry["scenario_id"], template,
                                    expected["runs"], 0,
                                    expected["history_digest"])
            self.scenarios.append(scenario)

    def _load(self, directory: pathlib.Path,
              span: Callable[[str], AbstractContextManager[Any]] = _no_span
              ) -> Any:
        """Steps 1 and 2 of the op: load, then register encapsulations."""
        with span("persistence.load"):
            env = load_environment(directory)
        with span("registry.register"):
            register_standard_encapsulations(env)
            register_corpus_encapsulations(env)
            if self.workload.busy_s:
                register_busy_tools(env, self.workload.busy_s)
        return env

    def _grow(self, directory: pathlib.Path) -> str:
        """Add forced ``readwrite`` runs; return the grown digest."""
        env = self._load(directory)
        try:
            for _ in range(self.workload.grow_runs):
                env.executor(cache=CACHE_READWRITE).execute(
                    env.plan_flow(MAIN_FLOW), force=True)
            save_environment(env, directory)
            return signature_digest(history_signature(env))
        finally:
            env.db.store.close()

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    def _executor(self, env: Any) -> Any:
        cache = self.workload.cache
        if self.workload.procpool:
            return env.process_executor(workers=WORKERS, cache=cache)
        return env.executor(cache=cache)

    def run_cycle(self, recorder: SpanRecorder | None = None
                  ) -> list[OpResult]:
        """One op on every scenario, in manifest order."""
        results = []
        for scenario in self.scenarios:
            self._ops += 1
            if self.workload.grow_runs:
                directory = scenario.template
            else:
                directory = self.work / "op"
                shutil.copytree(scenario.template, directory)
            started = time.perf_counter()
            try:
                results.append(self._op(scenario, directory, recorder))
            except Exception:  # op boundary: count the failure, go on
                traceback.print_exc(file=sys.stderr)
                results.append(OpResult(time.perf_counter() - started,
                                        ok=False))
            finally:
                if not self.workload.grow_runs:
                    shutil.rmtree(directory, ignore_errors=True)
        return results

    def _op(self, scenario: Scenario, directory: pathlib.Path,
            recorder: SpanRecorder | None) -> OpResult:
        span = recorder.span if recorder is not None else _no_span
        root = (recorder.op(self._ops) if recorder is not None
                else nullcontext())
        with root:
            started = time.perf_counter()
            env = self._load(directory, span)
            with span("core.plan"):
                flow = env.plan_flow(MAIN_FLOW)
            with span("execution.execute"):
                executor = self._executor(env)
                report = executor.execute(flow)
            with span("persistence.save"):
                save_environment(env, directory)
            seconds = time.perf_counter() - started
        try:
            digest = signature_digest(history_signature(env))
            result = OpResult(
                seconds,
                ok=(not report.failures
                    and report.runs == scenario.runs
                    and report.cache_hits == scenario.hits
                    and digest == scenario.digest),
                invocations=report.runs + report.cache_hits,
                serial_s=report.serial_time,
                wall_s=report.wall_time,
                queue_wait_s=report.queue_wait_time)
            if executor.cache is not None:
                stats = executor.cache.stats
                result.hits = stats.hits
                result.misses = stats.misses
                result.invalidated = stats.invalidated
            if recorder is not None:
                result.history_bytes = _history_bytes(directory)
                result.instances = len(env.db)
            if not result.ok:
                print(f"{self.workload.name}: {scenario.scenario_id}: "
                      f"{report.runs} runs, {report.cache_hits} hits, "
                      f"digest {digest[:16]}; expected {scenario.runs} "
                      f"runs, {scenario.hits} hits, digest "
                      f"{scenario.digest[:16]}", file=sys.stderr)
            return result
        finally:
            env.db.store.close()
