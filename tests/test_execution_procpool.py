"""Process-pool executor: equivalence, resilience, queue-wait semantics.

The procpool tier must be observably interchangeable with the
in-process executors — same history digests, same resilience contract —
while actually running tools in forked worker processes.  These tests
pin that equivalence plus the process-specific behaviours: watchdog
kills of hung workers, respawn after worker death, trips queued behind
one another in a worker's pipe, and the coordinator-clock queue-wait
accounting.
"""

from __future__ import annotations

import collections
import os
import sys
import time

import pytest

from repro.errors import ExecutionError, ToolError
from repro.execution import (DesignEnvironment, FaultPlan, FaultSpec,
                             FlowExecutor, ResiliencePolicy, encapsulation,
                             procpool)
from repro.obs import RunLedger, SamplingProfiler
from repro.schema.builder import SchemaBuilder

SLEEP = 0.03


def fan_schema():
    builder = SchemaBuilder("fan")
    builder.data("Spec")
    builder.tool("Tool")
    builder.data("Out")
    builder.produced_by("Out", "Tool", inputs=[("src", "Spec")])
    return builder.build()


def fan_env(sleep: float = 0.0, tool_fn=None,
            branches: int = 4) -> DesignEnvironment:
    env = DesignEnvironment(fan_schema(), user="tester")

    def default_fn(ctx, inputs):
        if sleep:
            time.sleep(sleep)
        return {"ok": inputs["src"]["n"]}

    env.install_tool("Tool", encapsulation("fan-tool",
                                           tool_fn or default_fn),
                     name="t0")
    for index in range(branches):
        env.install_data("Spec", {"n": index}, name=f"s{index}")
    return env


def fan_flow(env: DesignEnvironment):
    """Independent Spec -> Tool -> Out branches, one per Spec, in one
    flow (four by default)."""
    tool = env.db.latest("Tool")
    specs = sorted((i for i in env.db.instances()
                    if i.entity_type == "Spec"),
                   key=lambda i: i.name)
    flow = env.new_flow("fan")
    for index, spec in enumerate(specs):
        spec_node = flow.place("Spec", label=f"s{index}")
        flow.bind(spec_node, spec.instance_id)
        out = flow.place("Out", label=f"o{index}")
        tool_node = flow.place("Tool", label=f"t{index}")
        flow.bind(tool_node, tool.instance_id)
        flow.connect(out, tool_node)
        flow.connect(out, spec_node, role="src")
    return flow


def digest(env: DesignEnvironment):
    return sorted((inst.entity_type, inst.data_ref)
                  for inst in env.db.instances())


def logged_tool(log, first=None):
    """A fan tool that appends its input to ``log`` as it starts, and
    hands the first call of all (found by a flag file) to ``first``."""
    flag = log.with_suffix(".first")

    def tool(ctx, inputs):
        with log.open("a") as out:
            out.write(f"{inputs['src']['n']}\n")
        if first is not None and not flag.exists():
            flag.write_text("x")
            first()
        return {"ok": inputs["src"]["n"]}

    return tool


def trips_answered(monkeypatch):
    """Record each round trip's envelope ids and the ids its reply
    answered with."""
    trips = []
    call = procpool._WorkerHandle.call

    def spy(handle, batch, timeout):
        outcomes = call(handle, batch, timeout)
        trips.append(([envelope.envelope_id for envelope in batch],
                      [outcome.envelope_id for outcome in outcomes]))
        return outcomes

    monkeypatch.setattr(procpool._WorkerHandle, "call", spy)
    return trips


def trips_held(monkeypatch, method):
    """Record how many trips a worker handle held at each call of one
    of its methods (``_send``: how many were already in flight)."""
    held = []
    original = getattr(procpool._WorkerHandle, method)

    def spy(handle, *args):
        held.append(len(handle._trips))
        return original(handle, *args)

    monkeypatch.setattr(procpool._WorkerHandle, method, spy)
    return held


class TestEquivalence:
    def test_same_history_as_sequential(self):
        a = fan_env()
        a.run(fan_flow(a))
        b = fan_env()
        report = b.process_executor(workers=2).execute(fan_flow(b))
        assert len(report.results) == 4
        assert digest(a) == digest(b)

    def test_results_report_worker_machines(self):
        env = fan_env()
        report = env.process_executor(workers=2).execute(fan_flow(env))
        machines = {r.machine for r in report.results}
        assert machines <= {"worker0", "worker1"}

    def test_worker_count_must_be_positive(self):
        env = fan_env()
        with pytest.raises(ExecutionError):
            env.process_executor(workers=0)

    def test_composition_matches_sequential(self, stocked_env):
        from tests.conftest import build_performance_flow

        def performance(env):
            return build_performance_flow(
                env,
                netlist_id=env.netlist.instance_id,
                models_id=env.models.instance_id,
                stimuli_id=env.stimuli.instance_id,
                simulator_id=env.db.latest("Simulator").instance_id)

        flow, goal = performance(stocked_env)
        report = stocked_env.process_executor(workers=2).execute(flow)
        assert goal.produced
        assert [r.tool_type for r in report.results] == [None,
                                                         "Simulator"]

    def test_cache_reuse_across_runs(self):
        env = fan_env()
        first = env.process_executor(
            workers=2, cache="readwrite").execute(fan_flow(env))
        assert len(first.results) == 4
        second = env.process_executor(
            workers=2, cache="readwrite").execute(fan_flow(env))
        assert not second.results
        assert second.cache_hits == 4

    def test_skips_already_produced_nodes(self):
        env = fan_env()
        flow = fan_flow(env)
        env.process_executor(workers=2).execute(flow)
        again = env.process_executor(workers=2).execute(flow)
        assert not again.results
        assert len(again.skipped) == 4


class TestResilience:
    def test_transient_crash_is_retried(self):
        env = fan_env()
        policy = ResiliencePolicy(retries=2, backoff_base=0.0,
                                  jitter=0.0)
        faults = FaultPlan([FaultSpec("Tool", 2)], seed=1)
        report = env.process_executor(
            workers=2, resilience=policy,
            faults=faults).execute(fan_flow(env))
        assert len(report.results) == 4
        assert report.retries == 1
        assert faults.fired == (("Tool", 2, "crash"),)

    def test_hang_trips_watchdog_and_recovers(self):
        env = fan_env(sleep=0.005)
        policy = ResiliencePolicy(retries=2, timeout=0.5,
                                  backoff_base=0.0, jitter=0.0)
        faults = FaultPlan([FaultSpec("Tool", 1, kind="hang",
                                      delay=30.0)], seed=1)
        started = time.perf_counter()
        report = env.process_executor(
            workers=2, resilience=policy,
            faults=faults).execute(fan_flow(env))
        elapsed = time.perf_counter() - started
        # the hung worker was killed at the 0.5s budget, not after 30s
        assert elapsed < 10.0
        assert len(report.results) == 4
        assert report.timeouts == 1
        assert report.retries == 1

    def test_worker_fires_faults_with_the_plans_sleep(self):
        """A worker fires its drawn fault with the plan's ``sleep``, as
        a lane does: under a no-op sleep a scripted hang never hangs,
        so the watchdog has nothing to kill."""
        env = fan_env()
        policy = ResiliencePolicy(retries=2, timeout=0.5,
                                  backoff_base=0.0, jitter=0.0)
        faults = FaultPlan([FaultSpec("Tool", 1, kind="hang",
                                      delay=30.0)], seed=1,
                           sleep=lambda delay: None)
        report = env.process_executor(
            workers=1, resilience=policy,
            faults=faults).execute(fan_flow(env))
        assert len(report.results) == 4
        assert faults.fired == (("Tool", 1, "hang"),)
        assert report.timeouts == 0

    def test_late_worker_start_keeps_replies_in_step(self, tmp_path,
                                                     monkeypatch):
        """A worker that reaches its loop late finds several trips
        already waiting in its pipe, the state queued trips leave it in
        on every run.  It still answers each trip with that trip's
        outcomes, and runs each tool once."""
        worker_main = procpool._worker_main

        def late(*args):
            time.sleep(0.2)
            worker_main(*args)

        monkeypatch.setattr(procpool, "_worker_main", late)
        trips = trips_answered(monkeypatch)
        held = trips_held(monkeypatch, "_send")
        log = tmp_path / "calls"
        env = fan_env(tool_fn=logged_tool(log))
        report = env.process_executor(workers=2).execute(fan_flow(env))
        assert len(report.results) == 4
        assert max(held) == procpool.TRIPS_PER_WORKER - 1
        assert all(sent == answered for sent, answered in trips)
        assert sorted(log.read_text().split()) == ["0", "1", "2", "3"]

    @pytest.mark.parametrize("loss", ["hang", "exit"])
    def test_trip_queued_behind_a_lost_head_runs_once(self, tmp_path,
                                                      monkeypatch, loss):
        """On one worker, the head trip hangs past its watchdog budget,
        or its process exits, while the other lane's trip waits behind
        it.  That trip never started, so it is re-sent to the respawned
        worker, not failed: every tool runs once, the lost one once
        more on retry, and the run records the retries and timeouts of
        a run with one lane per worker."""

        def lose():
            time.sleep(0.2)  # the other lane's trip queues meanwhile
            if loss == "hang":
                time.sleep(30.0)
            os._exit(17)

        held = trips_held(monkeypatch, "respawn")

        def run(lanes):
            monkeypatch.setattr(procpool, "TRIPS_PER_WORKER", lanes)
            held.clear()
            log = tmp_path / f"calls-{lanes}"
            env = fan_env(tool_fn=logged_tool(log, lose))
            policy = ResiliencePolicy(retries=2, timeout=1.0,
                                      backoff_base=0.0, jitter=0.0)
            report = env.process_executor(
                workers=1, resilience=policy).execute(fan_flow(env))
            assert len(report.results) == 4
            runs = collections.Counter(log.read_text().split())
            return list(held), sorted(runs.values()), \
                (report.retries, report.timeouts)

        one_lane = run(1)
        two_lanes = run(2)
        assert one_lane[0] == [1] and two_lanes[0] == [2]
        assert one_lane[1] == two_lanes[1] == [1, 1, 1, 2]
        assert one_lane[2] == two_lanes[2] \
            == ((1, 1) if loss == "hang" else (1, 0))

    def test_worker_counters_survive_a_respawn(self, tmp_path):
        """The killed process's counters are banked, not lost: one
        batch before the hang, three in the replacement (the hung
        round trip never replied, so it counts nowhere)."""
        env = fan_env(sleep=0.005)
        env.ledger = RunLedger(tmp_path / "ledger.jsonl")
        policy = ResiliencePolicy(retries=2, timeout=0.5,
                                  backoff_base=0.0, jitter=0.0)
        faults = FaultPlan([FaultSpec("Tool", 2, kind="hang",
                                      delay=30.0)], seed=1)
        env.process_executor(
            workers=1, resilience=policy,
            faults=faults).execute(fan_flow(env))
        record = RunLedger(tmp_path / "ledger.jsonl").records()[-1]
        worker = record.workers["worker0"]
        assert worker.batches == 4
        assert worker.invocations == 4
        assert worker.respawns == 1

    def test_worker_profile_survives_a_respawn(self, tmp_path):
        """The samples a worker sent before a watchdog killed it stay
        in the run's profile: its process replied twice before its
        third call hung, and the profile counts every tool body that
        ran, not only the replacement's."""
        log = tmp_path / "calls"
        env = fan_env(tool_fn=logged_tool(log))
        env.profiler = SamplingProfiler(0.001)
        policy = ResiliencePolicy(retries=2, timeout=0.5,
                                  backoff_base=0.0, jitter=0.0)
        faults = FaultPlan([FaultSpec("Tool", 3, kind="hang",
                                      delay=30.0)], seed=1)
        env.profiler.start()
        try:
            report = env.process_executor(
                workers=1, resilience=policy,
                faults=faults).execute(fan_flow(env))
        finally:
            env.profiler.stop()
        bodies = log.read_text().split()
        assert len(bodies) == 4
        assert report.timeouts == 1
        tools = env.profiler.aggregate.to_dict()["tools"]
        assert tools["Tool"]["calls"] == len(bodies)

    def test_lanes_absorb_every_reply_into_one_profile(self):
        """Every lane absorbs its replies' samples into the run's one
        profiler as they arrive: with more workers than cores and a
        short switch interval, no reply's calls are lost."""
        env = fan_env(branches=96)
        env.profiler = SamplingProfiler(0.001)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        env.profiler.start()
        try:
            report = env.process_executor(workers=4).execute(
                fan_flow(env))
        finally:
            env.profiler.stop()
            sys.setswitchinterval(interval)
        tools = env.profiler.aggregate.to_dict()["tools"]
        assert report.runs == tools["Tool"]["calls"] == 96

    def test_handle_counts_replies_across_crash_and_respawn(
            self, tmp_path, monkeypatch):
        """The coordinator counts its worker from the replies it
        received: one batch per reply, one invocation per outcome (the
        crashed attempt's failed one included), their durations as busy
        time.  The round trip the watchdog killed got no reply and
        counts nowhere."""
        replies = []
        call = procpool._WorkerHandle.call

        def spy(handle, batch, timeout):
            outcomes = call(handle, batch, timeout)
            replies.append(outcomes)
            return outcomes

        monkeypatch.setattr(procpool._WorkerHandle, "call", spy)
        env = fan_env(sleep=0.005)
        env.ledger = RunLedger(tmp_path / "ledger.jsonl")
        policy = ResiliencePolicy(retries=2, timeout=0.5,
                                  backoff_base=0.0, jitter=0.0)
        faults = FaultPlan([FaultSpec("Tool", 1),
                            FaultSpec("Tool", 3, kind="hang",
                                      delay=30.0)], seed=1)
        report = env.process_executor(
            workers=1, resilience=policy,
            faults=faults).execute(fan_flow(env))
        assert (report.retries, report.timeouts) == (2, 1)
        outcomes = [outcome for reply in replies for outcome in reply]
        assert [outcome.ok for outcome in outcomes].count(False) == 1
        worker = RunLedger(tmp_path / "ledger.jsonl").records()[-1] \
            .workers["worker0"]
        assert (worker.batches, worker.invocations, worker.respawns) \
            == (len(replies), len(outcomes), 1) == (5, 5, 1)
        assert worker.busy_time == pytest.approx(
            sum(max(0.0, outcome.duration) for outcome in outcomes),
            abs=1e-6)

    def test_worker_death_is_transient_and_respawned(self, tmp_path):
        flag = tmp_path / "died-once"

        def suicidal(ctx, inputs):
            if not flag.exists():
                flag.write_text("x")
                os._exit(17)  # hard worker death, no cleanup
            return {"ok": inputs["src"]["n"]}

        env = fan_env(tool_fn=suicidal)
        policy = ResiliencePolicy(retries=2, backoff_base=0.0,
                                  jitter=0.0)
        report = env.process_executor(
            workers=1, resilience=policy).execute(fan_flow(env))
        assert len(report.results) == 4
        assert report.retries >= 1

    def test_permanent_crash_aborts_without_degrade(self):
        env = fan_env()
        policy = ResiliencePolicy(retries=2, backoff_base=0.0,
                                  jitter=0.0)
        faults = FaultPlan([FaultSpec("Tool", 1, transient=False)],
                           seed=1)
        with pytest.raises(ToolError) as caught:
            env.process_executor(
                workers=2, resilience=policy,
                faults=faults).execute(fan_flow(env))
        # classification survives the process boundary
        assert caught.value.repro_classification == "permanent"
        assert caught.value.repro_attempts == 1

    def test_quarantine_opens_across_workers(self):
        env = fan_env()
        policy = ResiliencePolicy(degrade=True, quarantine_after=2)
        faults = FaultPlan([FaultSpec("Tool", i, transient=False)
                            for i in (1, 2, 3, 4)], seed=1)
        report = env.process_executor(
            workers=1, resilience=policy,
            faults=faults).execute(fan_flow(env))
        assert not report.results
        assert report.quarantined == ["Tool"]
        classifications = [f.classification for f in report.failures]
        assert "quarantined" in classifications

    def test_unpicklable_result_is_a_tool_failure(self):
        def opaque(ctx, inputs):
            return {"fn": lambda: None}  # cannot cross the pipe

        env = fan_env(tool_fn=opaque)
        with pytest.raises(ExecutionError):
            env.process_executor(workers=1).execute(fan_flow(env))


class TestCodeGuard:
    """An envelope names its code by fingerprint, and only the worker
    checks that it runs that code: here the coordinator registers other
    code after the fork, so the two disagree."""

    @pytest.mark.parametrize("kind", ["tool", "compose"])
    def test_code_changed_after_fork_is_refused(self, stocked_env,
                                                monkeypatch, kind):
        from tests.conftest import build_performance_flow

        env, registry = stocked_env, stocked_env.registry
        simulator = env.db.latest("Simulator").instance_id
        flow, goal = build_performance_flow(
            env, netlist_id=env.netlist.instance_id,
            models_id=env.models.instance_id,
            stimuli_id=env.stimuli.instance_id, simulator_id=simulator)
        if kind == "tool":
            forked = registry.resolve("Simulator", simulator)
            code = f"encapsulation {forked.name!r}"

            def other(ctx, inputs):  # same behaviour, other code
                return forked.run(ctx, inputs)

            def swap():
                registry.register_for_instance(
                    simulator, encapsulation(forked.name, other))
        else:
            composed = registry.composition("Circuit")
            code = "composition for 'Circuit'"

            def swap():
                registry.register_composition(
                    "Circuit", lambda inputs: composed(inputs))
        start = procpool._WorkerHandle.start

        def start_then_swap(handle):
            start(handle)
            swap()

        monkeypatch.setattr(procpool._WorkerHandle, "start",
                            start_then_swap)
        with pytest.raises(ExecutionError) as caught:
            env.process_executor(workers=1).execute(flow)
        assert str(caught.value) == (
            f"{code} changed between dispatch and execution "
            "(fingerprint mismatch)")
        assert not goal.produced


class TestQueueWait:
    """Queue-wait accounting, one definition on every preset.

    The wait runs on the coordinator's clock from an invocation's
    release into the ready queue until its dispatch starts, measured
    after the claim lock is released (plus, on procpool, the time spent
    behind round-trip-mates).  A single-lane run of independent equal
    tasks accumulates roughly 0+1+2+3 task-lengths of wait, and tool
    durations never include any of it.
    """

    def _assert_wait_profile(self, report):
        assert len(report.results) == 4
        total_wait = report.queue_wait_time
        # 4 equal tasks on one lane: waits ~ 0+1+2+3 sleeps = 6 sleeps
        assert total_wait > 3 * SLEEP
        # durations are pure tool time, the wait is accounted apart
        for result in report.results:
            assert result.duration < 3 * SLEEP
        assert report.serial_time < 4 * 3 * SLEEP

    def test_procpool_single_worker_accumulates_wait(self):
        env = fan_env(sleep=SLEEP)
        report = env.process_executor(workers=1).execute(fan_flow(env))
        self._assert_wait_profile(report)

    def test_procpool_trip_waits_in_the_pipe(self, monkeypatch):
        """On one worker with two single-call trips in flight, the
        second starts only after the first: its queue wait, measured by
        the worker's start time, is at least the first one's tool
        time."""
        held = trips_held(monkeypatch, "_send")
        env = fan_env(sleep=SLEEP, branches=2)
        policy = ResiliencePolicy(timeout=10.0)  # one call per trip
        report = env.process_executor(
            workers=1, resilience=policy).execute(fan_flow(env))
        assert held == [0, 1]
        first, second = sorted(report.results,
                               key=lambda result: result.queue_wait)
        assert second.queue_wait >= first.duration

    def test_scheduled_single_machine_accumulates_wait(self):
        env = fan_env(sleep=SLEEP)
        report = env.scheduled_executor(machines=1).execute(
            fan_flow(env))
        self._assert_wait_profile(report)

    def test_procpool_parallel_run_waits_less_than_serial(self):
        serial_env = fan_env(sleep=SLEEP)
        serial = serial_env.process_executor(workers=1).execute(
            fan_flow(serial_env))
        wide_env = fan_env(sleep=SLEEP)
        wide = wide_env.process_executor(workers=4).execute(
            fan_flow(wide_env))
        assert wide.queue_wait_time < serial.queue_wait_time


def test_a_trip_queued_behind_a_busy_worker_takes_one_invocation(
        monkeypatch):
    """A lane claims a batch for an idle worker, but one invocation to
    queue behind its worker's running trip: more would be work an idle
    worker could no longer steal."""
    claims = []
    claim = procpool.ProcessFlowExecutor._claim

    def spy(executor, run, lane):
        busy = lane.host in executor._busy_workers()
        groups = claim(executor, run, lane)
        claims.append((busy, len(groups[0])))
        return groups

    monkeypatch.setattr(procpool.ProcessFlowExecutor, "_claim", spy)
    env = fan_env(sleep=SLEEP, branches=8)
    report = env.process_executor(workers=1).execute(fan_flow(env))
    assert len(report.results) == 8
    assert claims[0] == (False, procpool.BATCH_MAX)
    assert (True, 1) in claims
    assert all(size == 1 for busy, size in claims if busy)


def test_shared_handles_hold_under_thread_churn(tmp_path, monkeypatch):
    """Each worker's lanes share its handle's trip queue and reply
    counters.  With more workers than cores and a short switch
    interval, every trip is still answered with its own outcomes, each
    tool runs once, and the counters add up to the runs."""
    trips = trips_answered(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for attempt in range(3):
            trips.clear()
            log = tmp_path / f"calls-{attempt}"
            env = fan_env(tool_fn=logged_tool(log), branches=8)
            env.ledger = RunLedger(tmp_path / f"ledger-{attempt}.jsonl")
            report = env.process_executor(workers=3).execute(
                fan_flow(env))
            assert report.runs == 8
            assert all(sent == answered for sent, answered in trips)
            assert sorted(log.read_text().split()) \
                == [str(n) for n in range(8)]
            workers = RunLedger(tmp_path / f"ledger-{attempt}.jsonl") \
                .records()[-1].workers.values()
            assert sum(worker.invocations for worker in workers) == 8
            assert sum(worker.batches for worker in workers) \
                == len(trips)
    finally:
        sys.setswitchinterval(interval)


def batch_refused() -> bool:
    """Whether this thread runs another policy than the default, or the
    OS has no ``SCHED_BATCH`` or refuses it.  The probe runs on this
    thread and is undone: a probe thread still exiting would make the
    next fork one from a multi-threaded process."""
    if not hasattr(os, "SCHED_BATCH") \
            or os.sched_getscheduler(0) != os.SCHED_OTHER:
        return True
    param = os.sched_getparam(0)
    try:
        os.sched_setscheduler(0, os.SCHED_BATCH, param)
    except OSError:
        return True
    os.sched_setscheduler(0, os.SCHED_OTHER, param)
    return False


@pytest.mark.skipif(batch_refused(),
                    reason="no SCHED_BATCH for a default-policy thread")
class TestLanePolicy:
    """Procpool lanes run under ``SCHED_BATCH``, so a reply wakes its
    lane without preempting the worker that sent it; the caller, the
    workers and the lanes of the in-process presets keep the caller's
    policy."""

    @staticmethod
    def lane_policies(monkeypatch, preset):
        policies = []
        drain = preset._drain

        def spy(executor, run, lane):
            policies.append(os.sched_getscheduler(0))
            return drain(executor, run, lane)

        monkeypatch.setattr(preset, "_drain", spy)
        return policies

    def test_every_lane_runs_batch(self, monkeypatch):
        policies = self.lane_policies(monkeypatch,
                                      procpool.ProcessFlowExecutor)
        env = fan_env()
        report = env.process_executor(workers=2).execute(fan_flow(env))
        assert report.runs == 4
        assert policies \
            == [os.SCHED_BATCH] * (2 * procpool.TRIPS_PER_WORKER)

    def test_the_caller_keeps_its_policy(self):
        before = os.sched_getscheduler(0), os.sched_getparam(0)
        env = fan_env()
        env.process_executor(workers=2).execute(fan_flow(env))
        assert (os.sched_getscheduler(0), os.sched_getparam(0)) == before

    @pytest.mark.parametrize("preset", ["parallel", "scheduled"])
    def test_in_process_lanes_keep_the_callers_policy(self, monkeypatch,
                                                      preset):
        policies = self.lane_policies(monkeypatch, FlowExecutor)
        env = fan_env()
        build = getattr(env, f"{preset}_executor")
        report = build(machines=2).execute(fan_flow(env))
        assert report.runs == 4
        assert policies == [os.sched_getscheduler(0)] * 2

    def test_workers_keep_the_callers_policy_across_a_respawn(
            self, tmp_path, monkeypatch):
        """Every call reports the caller's policy, those of the worker
        a watchdog respawn forked from a lane thread included."""
        log = tmp_path / "policies"

        def tool(ctx, inputs):
            time.sleep(0.005)
            with log.open("a") as out:
                out.write(f"{os.getpid()} {os.sched_getscheduler(0)}\n")
            return {"ok": inputs["src"]["n"]}

        respawned = []
        respawn = procpool._WorkerHandle.respawn

        def spy(handle):
            respawn(handle)
            respawned.append(handle.process.pid)

        monkeypatch.setattr(procpool._WorkerHandle, "respawn", spy)
        env = fan_env(tool_fn=tool)
        policy = ResiliencePolicy(retries=2, timeout=0.5,
                                  backoff_base=0.0, jitter=0.0)
        faults = FaultPlan([FaultSpec("Tool", 1, kind="hang",
                                      delay=30.0)], seed=1)
        report = env.process_executor(
            workers=2, resilience=policy,
            faults=faults).execute(fan_flow(env))
        assert (len(report.results), report.timeouts) == (4, 1)
        calls = [line.split() for line in log.read_text().splitlines()]
        assert len(calls) == 4 and len(respawned) == 1
        assert respawned[0] in {int(pid) for pid, _ in calls}
        assert {int(policy) for _, policy in calls} \
            == {os.sched_getscheduler(0)}


def test_every_worker_is_told_to_stop_before_any_is_joined(monkeypatch):
    """Workers exit in parallel: every shutdown sentinel goes out before
    the first join, and none outlives ``execute()``."""
    events = []
    handles = []
    start = procpool._WorkerHandle.start
    request_stop = procpool._WorkerHandle.request_stop
    stop = procpool._WorkerHandle.stop

    def recorded(kind, method):
        def call(handle):
            if kind == "start" and handle not in handles:
                handles.append(handle)
            events.append(kind)
            method(handle)
        return call

    for kind, method in (("start", start), ("request_stop", request_stop),
                         ("stop", stop)):
        monkeypatch.setattr(procpool._WorkerHandle, kind,
                            recorded(kind, method))
    env = fan_env()
    report = env.process_executor(workers=3).execute(fan_flow(env))
    assert report.runs == 4
    assert events == ["start"] * 3 + ["request_stop"] * 3 + ["stop"] * 3
    assert len(handles) == 3
    assert not any(handle.process.is_alive() for handle in handles)
