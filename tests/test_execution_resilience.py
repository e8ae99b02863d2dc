"""Resilient execution: retries, timeouts, quarantine, fault injection.

The history database is only a faithful derivation record if failed
invocations record nothing and recovered invocations record exactly
once.  These tests drive the resilience policy and the deterministic
fault harness through all four executors and check that the ledger,
events, and health checks see the same story.
"""

import json
import threading
import time

import pytest

from repro.cli import main
from repro.errors import (ExecutionError, HistoryError,
                          InvocationTimeoutError, ToolError,
                          ToolQuarantinedError, TransientToolError)
from repro.execution import (CORRUPT, CRASH, HANG, PERMANENT, QUARANTINED,
                             TRANSIENT, UPSTREAM, CircuitBreaker,
                             CorruptData, DesignEnvironment, FaultPlan,
                             FaultSpec, ResiliencePolicy,
                             call_with_timeout, encapsulation)
from repro.obs import (TOOL_QUARANTINED, TOOL_RETRIED, TOOL_TIMED_OUT,
                       RingBufferSink)
from repro.obs.health import (FAIL, OK, WARN, HealthThresholds,
                              check_error_rate, check_quarantine)
from repro.obs.ledger import RunRecord, ToolRunStats, timer_stats_of
from repro.persistence import save_environment
from repro.schema import standard as S
from repro.schema.standard import odyssey_schema
from repro.tools import install_standard_tools, standard_library
from repro.tools import stdcell_layout
from repro.tools.logic import LogicSpec


def no_sleep(delay: float) -> None:
    """Backoff sleeps recorded but never slept (deterministic tests)."""


def policy(**kwargs) -> ResiliencePolicy:
    kwargs.setdefault("sleep", no_sleep)
    return ResiliencePolicy(**kwargs)


@pytest.fixture
def env(schema, clock) -> DesignEnvironment:
    return DesignEnvironment(schema, user="chaos", clock=clock)


def make_extractor(env, name="netex"):
    """Deterministic extractor: output is a pure function of input."""

    def extract(ctx, inputs):
        layout = inputs["layout"]
        return {t: {"from": layout["l"], "made": t}
                for t in ctx.output_types}

    return env.install_tool(S.EXTRACTOR, encapsulation(name, extract),
                            name=name)


def single_branch(env, extractor_id):
    layout = env.install_data(S.EDITED_LAYOUT, {"l": 1})
    flow = env.new_flow("one")
    netlist = flow.place(S.EXTRACTED_NETLIST)
    flow.expand(netlist)
    flow.bind(flow.sole_node_of_type(S.LAYOUT), layout.instance_id)
    flow.bind(flow.sole_node_of_type(S.EXTRACTOR), extractor_id)
    return flow, netlist


def branches_flow(env, extractor_id, count=3):
    """The Fig. 6 shape: ``count`` disjoint extraction branches."""
    flow = env.new_flow("fig6")
    for index in range(count):
        layout = env.install_data(S.EDITED_LAYOUT, {"l": index})
        netlist = flow.place(S.EXTRACTED_NETLIST)
        flow.expand(netlist)
        unbound = [n for n in flow.nodes()
                   if n.entity_type == S.LAYOUT and not n.is_bound]
        flow.bind(unbound[0], layout.instance_id)
        tools = [n for n in flow.nodes()
                 if n.entity_type == S.EXTRACTOR and not n.is_bound]
        flow.bind(tools[0], extractor_id)
    return flow


def fan_out_flow(env, extractor_id, count=3):
    """One Extractor invocation over ``count`` bound layouts: one call
    per layout."""
    layouts = [env.install_data(S.EDITED_LAYOUT, {"l": index})
               for index in range(count)]
    flow = env.new_flow("fan-out")
    netlist = flow.place(S.EXTRACTED_NETLIST)
    flow.expand(netlist)
    flow.bind(flow.sole_node_of_type(S.LAYOUT),
              *(layout.instance_id for layout in layouts))
    flow.bind(flow.sole_node_of_type(S.EXTRACTOR), extractor_id)
    return flow


def netlist_signature(env):
    """Order-independent content signature of every extracted netlist."""
    return sorted(
        json.dumps(env.db.data(inst), sort_keys=True, default=str)
        for inst in env.db.browse(S.EXTRACTED_NETLIST))


# ---------------------------------------------------------------------------
# the policy layer in isolation
# ---------------------------------------------------------------------------
class TestResiliencePolicy:
    def test_transient_failure_retried_to_success(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientToolError("flaky")
            return 42

        result, stats = policy(retries=3).run("T", flaky)
        assert result == 42
        assert (stats.attempts, stats.retries) == (3, 2)
        assert len(stats.delays) == 2

    def test_permanent_error_never_retried(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("bad data")

        with pytest.raises(ValueError) as err:
            policy(retries=5).run("T", broken)
        assert calls["n"] == 1
        assert err.value.repro_classification == PERMANENT
        assert err.value.repro_attempts == 1

    def test_retry_budget_exhausted(self):
        def always():
            raise TransientToolError("down")

        with pytest.raises(TransientToolError) as err:
            policy(retries=2).run("T", always)
        assert err.value.repro_attempts == 3
        assert err.value.repro_retries == 2
        assert err.value.repro_classification == TRANSIENT
        assert err.value.repro_tool_type == "T"

    def test_backoff_schedule_deterministic(self):
        one = policy(seed=11)
        two = policy(seed=11)
        schedule = [one.backoff_delay("T", a) for a in (1, 2, 3)]
        assert schedule == [two.backoff_delay("T", a) for a in (1, 2, 3)]
        assert schedule == sorted(schedule)  # exponential growth
        other = policy(seed=12)
        assert schedule != [other.backoff_delay("T", a)
                            for a in (1, 2, 3)]

    def test_backoff_capped_with_jitter(self):
        pol = policy(backoff_base=0.1, backoff_factor=10.0,
                     backoff_max=1.0, jitter=0.1)
        delay = pol.backoff_delay("T", 9)
        assert 1.0 <= delay <= 1.1

    def test_override_tunes_one_tool_type(self):
        pol = policy(retries=1).override("Sim", retries=4, timeout=2.0)
        assert pol.rule_for("Sim").retries == 4
        assert pol.rule_for("Sim").timeout == 2.0
        assert pol.rule_for("Other").retries == 1
        assert pol.rule_for("Other").timeout is None

    def test_breaker_opens_after_threshold(self):
        breaker = CircuitBreaker(threshold=2)
        assert breaker.record_failure("T") is False
        assert breaker.record_failure("T") is True  # newly opened
        assert breaker.is_open("T")
        assert breaker.open_types() == ("T",)
        breaker.reset("T")
        assert not breaker.is_open("T")

    def test_breaker_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure("T")
        breaker.record_success("T")
        assert breaker.record_failure("T") is False
        assert not breaker.is_open("T")

    def test_quarantine_fails_fast(self):
        pol = policy(quarantine_after=1)
        with pytest.raises(TransientToolError):
            pol.run("T", lambda: (_ for _ in ()).throw(
                TransientToolError("x")))
        calls = {"n": 0}

        def count():
            calls["n"] += 1
            return 1

        with pytest.raises(ToolQuarantinedError) as err:
            pol.run("T", count)
        assert calls["n"] == 0  # never invoked: the breaker was open
        assert err.value.repro_classification == QUARANTINED
        assert pol.quarantined() == ("T",)
        # other tool types are unaffected
        assert pol.run("U", count) == (1, pol.run("U", count)[1])

    def test_breaker_checked_before_every_attempt(self):
        """A quarantine opened during a call's backoff (by another
        lane's failure) refuses the call's next attempt."""
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            raise TransientToolError("flaky")

        pol = policy(retries=3, quarantine_after=1)
        pol.sleep = lambda delay: pol.breaker.record_failure("T")
        with pytest.raises(ToolQuarantinedError):
            pol.run("T", flaky)
        assert calls["n"] == 1

    def test_call_with_timeout_abandons_slow_calls(self):
        gate = threading.Event()

        def slow():
            gate.wait(timeout=5.0)
            return "late"

        started = time.monotonic()
        with pytest.raises(InvocationTimeoutError):
            call_with_timeout(slow, 0.05)
        assert time.monotonic() - started < 2.0
        gate.set()
        assert call_with_timeout(lambda: "fast", 0.5) == "fast"

    def test_call_with_timeout_propagates_errors(self):
        def broken():
            raise RuntimeError("inside")

        with pytest.raises(RuntimeError, match="inside"):
            call_with_timeout(broken, 0.5)
        assert call_with_timeout(lambda: 7, None) == 7

    def test_timeout_is_transient_and_retried(self):
        calls = {"n": 0}
        gate = threading.Event()

        def slow_then_fast():
            calls["n"] += 1
            if calls["n"] == 1:
                gate.wait(timeout=5.0)
            return "ok"

        result, stats = policy(retries=1, timeout=0.05).run(
            "T", slow_then_fast)
        gate.set()
        assert result == "ok"
        assert (stats.retries, stats.timeouts) == (1, 1)


# ---------------------------------------------------------------------------
# the fault harness in isolation
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_counts_per_tool_type_and_fires_once(self):
        plan = FaultPlan([FaultSpec("T", 2)], sleep=no_sleep)
        assert plan.apply("T", lambda: 1) == 1
        with pytest.raises(TransientToolError, match="invocation 2"):
            plan.apply("T", lambda: 1)
        assert plan.apply("T", lambda: 1) == 1
        assert plan.apply("U", lambda: 2) == 2  # separate counter
        assert plan.fired == (("T", 2, CRASH),)
        plan.reset()
        assert plan.fired == ()
        with pytest.raises(TransientToolError):
            plan.apply("T", lambda: 1)  # counter rewound
            plan.apply("T", lambda: 1)

    def test_permanent_crash_raises_tool_error(self):
        plan = FaultPlan([FaultSpec("T", 1, transient=False)],
                         sleep=no_sleep)
        with pytest.raises(ToolError) as err:
            plan.apply("T", lambda: 1)
        assert not isinstance(err.value, TransientToolError)

    def test_corrupt_runs_tool_then_mangles_output(self):
        ran = {"n": 0}

        def tool():
            ran["n"] += 1
            return {"good": True}

        plan = FaultPlan([FaultSpec("T", 1, kind=CORRUPT)],
                         sleep=no_sleep)
        assert isinstance(plan.apply("T", tool), CorruptData)
        assert ran["n"] == 1

    def test_hang_uses_injected_sleep(self):
        slept = []
        plan = FaultPlan([FaultSpec("T", 1, kind=HANG, delay=9.0)],
                         sleep=slept.append)
        assert plan.apply("T", lambda: "v") == "v"
        assert slept == [9.0]

    def test_duplicate_slot_rejected(self):
        with pytest.raises(ExecutionError, match="duplicate"):
            FaultPlan([FaultSpec("T", 1), FaultSpec("T", 1)])

    def test_json_roundtrip(self, tmp_path):
        plan = FaultPlan(
            [FaultSpec("T", 1), FaultSpec("U", 2, kind=HANG, delay=0.5),
             FaultSpec("T", 3, transient=False, message="boom")],
            seed=99)
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = FaultPlan.load(path, sleep=no_sleep)
        assert loaded.seed == 99
        assert [f.to_dict() for f in loaded.faults] == \
            [f.to_dict() for f in plan.faults]

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(ExecutionError, match="cannot load"):
            FaultPlan.load(path)
        with pytest.raises(ExecutionError, match="unknown fault kind"):
            FaultSpec("T", 1, kind="meteor")
        with pytest.raises(ExecutionError, match="1-based"):
            FaultSpec("T", 0)

    def test_seeded_plans_reproducible(self):
        one = FaultPlan.seeded(5, ["T", "U"], faults=3, sleep=no_sleep)
        two = FaultPlan.seeded(5, ["T", "U"], faults=3, sleep=no_sleep)
        assert repr(one) == repr(two)
        assert len(one) == 3
        other = FaultPlan.seeded(6, ["T", "U"], faults=3,
                                 sleep=no_sleep)
        assert repr(one) != repr(other)


# ---------------------------------------------------------------------------
# executors under injected faults
# ---------------------------------------------------------------------------
class TestResilientExecution:
    def test_transient_crash_retried_end_to_end(self, env):
        tool = make_extractor(env)
        flow, netlist = single_branch(env, tool.instance_id)
        plan = FaultPlan([FaultSpec(S.EXTRACTOR, 1)], sleep=no_sleep)
        ring = RingBufferSink()
        env.bus.subscribe(ring)
        executor = env.executor(resilience=policy(retries=2),
                                faults=plan)
        report = executor.execute(flow)
        assert netlist.produced
        assert report.retries == 1
        assert report.timeouts == 0
        assert not report.failures
        assert len(env.db.browse(S.EXTRACTED_NETLIST)) == 1
        result = [r for r in report.results
                  if r.tool_type == S.EXTRACTOR][0]
        assert result.retries == 1
        retried = [e for e in ring.events()
                   if e.event_type == TOOL_RETRIED]
        assert len(retried) == 1
        assert retried[0].tool_type == S.EXTRACTOR
        assert retried[0].value("classification") == TRANSIENT
        assert retried[0].value("delay") > 0

    def test_retry_and_cache_record_exactly_once(self, env):
        """The retry × cache satellite: a transient failure followed by
        a successful retry leaves exactly one history record and one
        cache entry — no duplicates from the failed attempt."""
        tool = make_extractor(env)
        flow, netlist = single_branch(env, tool.instance_id)
        env.resilience = policy(retries=2)
        env.faults = FaultPlan([FaultSpec(S.EXTRACTOR, 1)],
                               sleep=no_sleep)
        report = env.run(flow, cache="readwrite")
        assert report.retries == 1
        assert len(env.db.browse(S.EXTRACTED_NETLIST)) == 1
        assert len(env.cache) == 1
        # a repaired re-run coalesces through the cache: nothing re-runs
        env.faults = None
        for node in flow.nodes():
            node.produced = ()
        again = env.run(flow, cache="reuse")
        assert again.runs == 0
        assert again.cache_hits == 1
        assert len(env.db.browse(S.EXTRACTED_NETLIST)) == 1

    def test_remembered_duration_is_the_successful_attempt(self, env):
        """The cache remembers the attempt that produced the result,
        not the failed attempt and the backoff before it."""
        tool = make_extractor(env)
        flow, _ = single_branch(env, tool.instance_id)
        env.resilience = ResiliencePolicy(retries=1, backoff_base=0.2,
                                          jitter=0.0)
        env.faults = FaultPlan([FaultSpec(S.EXTRACTOR, 1)],
                               sleep=no_sleep)
        assert env.run(flow, cache="readwrite").retries == 1
        env.faults = None
        for node in flow.nodes():
            node.produced = ()
        again = env.run(flow, cache="reuse")
        assert again.cache_hits == 1
        assert again.time_saved < 0.2

    def test_hang_fault_trips_watchdog_then_recovers(self, env):
        tool = make_extractor(env)
        flow, netlist = single_branch(env, tool.instance_id)
        plan = FaultPlan([FaultSpec(S.EXTRACTOR, 1, kind=HANG,
                                    delay=0.4)])
        ring = RingBufferSink()
        env.bus.subscribe(ring)
        executor = env.executor(
            resilience=policy(retries=1, timeout=0.05), faults=plan)
        report = executor.execute(flow)
        assert netlist.produced
        assert report.timeouts == 1
        assert report.retries == 1
        timed_out = [e for e in ring.events()
                     if e.event_type == TOOL_TIMED_OUT]
        assert len(timed_out) == 1
        assert timed_out[0].value("budget") == 0.05

    def test_permanent_fault_aborts_without_retry(self, env):
        tool = make_extractor(env)
        flow, netlist = single_branch(env, tool.instance_id)
        plan = FaultPlan([FaultSpec(S.EXTRACTOR, 1, transient=False)],
                         sleep=no_sleep)
        before = len(env.db)
        with pytest.raises(ToolError) as err:
            env.executor(resilience=policy(retries=3),
                         faults=plan).execute(flow)
        assert err.value.repro_attempts == 1
        assert err.value.repro_classification == PERMANENT
        assert len(env.db) == before
        assert netlist.produced == ()

    def test_corrupt_fault_rejected_atomically(self, env):
        tool = make_extractor(env)
        flow, netlist = single_branch(env, tool.instance_id)
        plan = FaultPlan([FaultSpec(S.EXTRACTOR, 1, kind=CORRUPT)],
                         sleep=no_sleep)
        before = len(env.db)
        # whichever framework contract check fires first (tool-result
        # shape or codec lookup), nothing may reach the history
        with pytest.raises((ExecutionError, HistoryError)):
            env.executor(resilience=policy(retries=2),
                         faults=plan).execute(flow)
        assert len(env.db) == before
        assert netlist.produced == ()

    def test_faults_without_policy_propagate_unchanged(self, env):
        tool = make_extractor(env)
        flow, netlist = single_branch(env, tool.instance_id)
        plan = FaultPlan([FaultSpec(S.EXTRACTOR, 1)], sleep=no_sleep)
        before = len(env.db)
        with pytest.raises(TransientToolError):
            env.executor(faults=plan).execute(flow)
        assert len(env.db) == before

    def test_degrade_records_partial_report(self, env, tmp_path):
        """Quarantine + degradation: the run finishes, losses recorded,
        the ledger and the health checks see the quarantined tool."""

        def always_down(ctx, inputs):
            raise TransientToolError("license server down")

        tool = env.install_tool(S.EXTRACTOR,
                                encapsulation("down", always_down))
        flow = branches_flow(env, tool.instance_id)
        ledger = env.attach_ledger(tmp_path / "ledger.jsonl")
        ring = RingBufferSink()
        env.bus.subscribe(ring)
        pol = policy(retries=0, quarantine_after=2, degrade=True)
        report = env.executor(resilience=pol).execute(flow)
        assert len(report.failures) == 3
        kinds = sorted(f.classification for f in report.failures)
        assert kinds == [QUARANTINED, TRANSIENT, TRANSIENT]
        assert report.quarantined == [S.EXTRACTOR]
        assert len(env.db.browse(S.EXTRACTED_NETLIST)) == 0
        assert any(e.event_type == TOOL_QUARANTINED
                   for e in ring.events())
        record = ledger.records()[-1]
        assert record.errors == 3
        assert record.failures == 3
        assert record.error_class == "TransientToolError"
        assert record.error_tool == S.EXTRACTOR
        assert record.quarantined == (S.EXTRACTOR,)
        check = check_quarantine(record, [], HealthThresholds())
        assert check.verdict == FAIL
        assert S.EXTRACTOR in check.detail

    def test_degrade_skips_downstream_of_failed_invocation(self, env):
        sim_calls = {"n": 0}

        def extract_broken(ctx, inputs):
            raise RuntimeError("segfault")

        def simulate(ctx, inputs):
            sim_calls["n"] += 1
            return {t: {"ok": True} for t in ctx.output_types}

        env.install_tool(S.EXTRACTOR,
                         encapsulation("x", extract_broken), name="x")
        env.install_tool(S.SIMULATOR, encapsulation("s", simulate),
                         name="s")
        layout = env.install_data(S.EDITED_LAYOUT, {"l": 1})
        models = env.install_data(S.DEVICE_MODELS, {"m": 1})
        stim = env.install_data(S.STIMULI, [[0]])
        flow, goal = env.goal_flow(S.PERFORMANCE)
        flow.expand(goal)
        circuit = flow.sole_node_of_type(S.CIRCUIT)
        flow.expand(circuit)
        netlist = flow.sole_node_of_type(S.NETLIST)
        flow.specialize(netlist, S.EXTRACTED_NETLIST)
        flow.expand(netlist)
        flow.bind(flow.sole_node_of_type(S.LAYOUT), layout.instance_id)
        flow.bind(flow.sole_node_of_type(S.DEVICE_MODELS),
                  models.instance_id)
        flow.bind(flow.sole_node_of_type(S.STIMULI), stim.instance_id)
        flow.bind(flow.sole_node_of_type(S.EXTRACTOR),
                  env.db.latest(S.EXTRACTOR).instance_id)
        flow.bind(flow.sole_node_of_type(S.SIMULATOR),
                  env.db.latest(S.SIMULATOR).instance_id)
        report = env.executor(resilience=policy(degrade=True)) \
            .execute(flow)
        classes = {f.classification for f in report.failures}
        assert PERMANENT in classes
        assert UPSTREAM in classes
        assert sim_calls["n"] == 0  # never invoked on missing inputs
        assert len(env.db.browse(S.PERFORMANCE)) == 0
        upstream = [f for f in report.failures
                    if f.classification == UPSTREAM]
        assert all(f.attempts == 0 for f in upstream)


# ---------------------------------------------------------------------------
# the four executors under one identical fault plan
# ---------------------------------------------------------------------------
class TestExecutorEquivalence:
    KINDS = ("sequential", "parallel", "scheduled", "procpool")

    @staticmethod
    def executor(env, kind, **settings):
        if kind == "parallel":
            return env.parallel_executor(machines=3, **settings)
        if kind == "scheduled":
            return env.scheduled_executor(machines=3, **settings)
        if kind == "procpool":
            return env.process_executor(workers=3, **settings)
        return env.executor(**settings)

    @classmethod
    def run_kind(cls, kind, build=branches_flow, crashes=(1, 2),
                 **rules):
        env = DesignEnvironment(odyssey_schema(), user="chaos")
        tool = make_extractor(env)
        flow = build(env, tool.instance_id)
        plan = FaultPlan([FaultSpec(S.EXTRACTOR, index)
                          for index in crashes], seed=7, sleep=no_sleep)
        pol = policy(seed=7, **{"retries": 3, **rules})
        ring = RingBufferSink()
        env.bus.subscribe(ring)
        report = cls.executor(env, kind, resilience=pol,
                              faults=plan).execute(flow)
        classifications = sorted(
            (e.tool_type, e.value("classification"))
            for e in ring.events() if e.event_type == TOOL_RETRIED)
        return {"signature": netlist_signature(env),
                "retries": report.retries,
                "failures": len(report.failures),
                "fired": sorted(plan.fired),
                "classifications": classifications}

    def test_identical_fault_plan_identical_outcome(self):
        """Same seeded plan, four executors, two runs each: same final
        instances, same retry counts, same error classification."""
        outcomes = {kind: [self.run_kind(kind), self.run_kind(kind)]
                    for kind in self.KINDS}
        baseline = outcomes["sequential"][0]
        assert baseline["retries"] == 2
        assert baseline["failures"] == 0
        assert len(baseline["signature"]) == 3
        for kind in self.KINDS:
            first, second = outcomes[kind]
            assert first == second, f"{kind} not deterministic"
            assert first["signature"] == baseline["signature"], kind
            assert first["retries"] == baseline["retries"], kind
            assert first["classifications"] == \
                baseline["classifications"], kind

    @pytest.mark.parametrize("crashes", [(1, 2), (2, 3), (1, 3)])
    def test_fan_out_identical_outcome(self, crashes):
        """Two crashes among one invocation's three calls: a lane
        retries each call before the next, a worker retries the failed
        calls of one round trip together; both recover identically."""
        outcomes = {kind: [self.run_kind(kind, fan_out_flow, crashes),
                           self.run_kind(kind, fan_out_flow, crashes)]
                    for kind in self.KINDS}
        baseline = outcomes["sequential"][0]
        assert baseline["retries"] == 2
        assert baseline["failures"] == 0
        assert len(baseline["signature"]) == 3
        assert baseline["fired"] == [(S.EXTRACTOR, index, CRASH)
                                     for index in crashes]
        for kind in self.KINDS:
            first, second = outcomes[kind]
            assert first == second, f"{kind} not deterministic"
            assert first == baseline, kind

    def test_budgeted_calls_retry_before_the_next_runs(self):
        """Under a watchdog budget every call rides alone, and each
        preset retries a call before the next one runs: two crashes in
        a row exhaust the first call's one retry."""
        outcomes = {kind: self.run_kind(kind, fan_out_flow, (1, 2),
                                        retries=1, timeout=5.0,
                                        degrade=True)
                    for kind in self.KINDS}
        baseline = outcomes["sequential"]
        assert baseline["failures"] == 1
        assert baseline["fired"] == [(S.EXTRACTOR, 1, CRASH),
                                     (S.EXTRACTOR, 2, CRASH)]
        for kind in self.KINDS:
            assert outcomes[kind] == baseline, kind

    @pytest.mark.parametrize("kind", ["sequential", "parallel",
                                      "scheduled"])
    def test_fan_out_stops_after_a_call_fails_for_good(self, kind):
        """The second of three calls fails permanently: the third is
        never attempted, so it neither runs the tool nor draws the
        crash scripted for it."""
        env = DesignEnvironment(odyssey_schema(), user="chaos")
        seen = []

        def extract(ctx, inputs):
            seen.append(inputs["layout"]["l"])
            return {t: {"from": inputs["layout"]["l"]}
                    for t in ctx.output_types}

        tool = env.install_tool(S.EXTRACTOR, encapsulation("x", extract))
        plan = FaultPlan([FaultSpec(S.EXTRACTOR, 2, transient=False),
                          FaultSpec(S.EXTRACTOR, 3)], sleep=no_sleep)
        report = self.executor(
            env, kind, resilience=policy(retries=3, degrade=True),
            faults=plan).execute(fan_out_flow(env, tool.instance_id))
        assert seen == [0]
        assert plan.fired == ((S.EXTRACTOR, 2, CRASH),)
        assert [f.classification for f in report.failures] == [PERMANENT]


# ---------------------------------------------------------------------------
# health checks over resilience telemetry
# ---------------------------------------------------------------------------
def ledger_record(error_tool="", errors=0, tools=(), quarantined=()):
    return RunRecord(
        run_id="r", timestamp=0.0, flow="f", executor="sequential",
        cache_policy="off", errors=errors,
        error="boom" if errors else "",
        error_class="ToolError" if errors else "",
        error_tool=error_tool, failures=errors,
        quarantined=tuple(quarantined),
        tools={t: ToolRunStats(invocations=1, runs=1,
                               duration=timer_stats_of([0.1]))
               for t in tools})


class TestHealthChecks:
    def test_error_rate_grouped_by_failing_tool(self):
        baseline = [ledger_record(tools=(S.EXTRACTOR,))
                    for _ in range(3)]
        current = ledger_record(error_tool=S.EXTRACTOR, errors=1,
                                tools=(S.EXTRACTOR,))
        check = check_error_rate(current, baseline, HealthThresholds())
        assert check.verdict == FAIL
        assert S.EXTRACTOR in check.detail

    def test_error_rate_warns_when_tool_already_unstable(self):
        baseline = [ledger_record(tools=(S.EXTRACTOR,)),
                    ledger_record(error_tool=S.EXTRACTOR, errors=1,
                                  tools=(S.EXTRACTOR,)),
                    ledger_record(error_tool=S.EXTRACTOR, errors=1,
                                  tools=(S.EXTRACTOR,))]
        current = ledger_record(error_tool=S.EXTRACTOR, errors=1)
        check = check_error_rate(current, baseline, HealthThresholds())
        assert check.verdict == WARN

    def test_quarantine_check_gates_only_when_open(self):
        thresholds = HealthThresholds()
        clean = ledger_record()
        assert check_quarantine(clean, [], thresholds).verdict == OK
        bad = ledger_record(quarantined=(S.SIMULATOR,))
        assert check_quarantine(bad, [], thresholds).verdict == FAIL

    def test_ledger_roundtrip_keeps_resilience_fields(self):
        record = ledger_record(error_tool=S.EXTRACTOR, errors=2,
                               quarantined=(S.EXTRACTOR,))
        back = RunRecord.from_dict(json.loads(
            json.dumps(record.to_dict())))
        assert back.error_tool == S.EXTRACTOR
        assert back.error_class == "ToolError"
        assert back.failures == 2
        assert back.quarantined == (S.EXTRACTOR,)
        assert "error=ToolError@Extractor" in record.render()


# ---------------------------------------------------------------------------
# the CLI surface
# ---------------------------------------------------------------------------
class TestRunCli:
    @staticmethod
    def saved_project(tmp_path, name):
        env = DesignEnvironment(odyssey_schema(), user="cli")
        tools = install_standard_tools(env)
        library = standard_library()
        spec = LogicSpec.from_equations("f0", "y = a & b")
        layout = env.install_data(
            S.STD_CELL_LAYOUT, stdcell_layout(spec, library,
                                              {"seed": 0}),
            name="variant-0")
        flow = env.new_flow("extract")
        netlist = flow.place(S.EXTRACTED_NETLIST)
        flow.expand(netlist)
        flow.bind(flow.sole_node_of_type(S.LAYOUT), layout.instance_id)
        flow.bind(flow.sole_node_of_type(S.EXTRACTOR),
                  tools[S.EXTRACTOR].instance_id)
        env.save_flow("extract", flow)
        directory = tmp_path / name
        save_environment(env, directory)
        return directory

    def test_run_with_retries_recovers_from_fault_plan(self, tmp_path,
                                                       capsys):
        directory = self.saved_project(tmp_path, "proj")
        plan_path = tmp_path / "plan.json"
        FaultPlan([FaultSpec(S.EXTRACTOR, 1)], seed=5).save(plan_path)
        code = main(["run", str(directory), "extract",
                     "--retries", "2", "--fault-plan", str(plan_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "resilience: 1 retries" in out

    def test_run_without_retries_fails_on_fault_plan(self, tmp_path,
                                                     capsys):
        directory = self.saved_project(tmp_path, "proj2")
        plan_path = tmp_path / "plan.json"
        FaultPlan([FaultSpec(S.EXTRACTOR, 1)], seed=5).save(plan_path)
        code = main(["run", str(directory), "extract",
                     "--fault-plan", str(plan_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "failed" in err

    def test_degraded_run_exits_nonzero(self, tmp_path, capsys):
        directory = self.saved_project(tmp_path, "proj3")
        plan_path = tmp_path / "plan.json"
        FaultPlan([FaultSpec(S.EXTRACTOR, 1, transient=False)],
                  seed=5).save(plan_path)
        code = main(["run", str(directory), "extract", "--degrade",
                     "--fault-plan", str(plan_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out

    def test_scheduled_executor_rejects_targets(self, tmp_path,
                                                capsys):
        directory = self.saved_project(tmp_path, "proj4")
        code = main(["run", str(directory), "extract",
                     "--executor", "scheduled", "--target", "n0"])
        assert code == 2
