"""Cross-process shared derivation memo: locking, absorption, sharing.

The memo is an append-only JSONL log guarded by a file lock; concurrent
writers (worker lanes, parallel CLI runs) must never corrupt it, and
every reader must eventually observe every writer's entries.  The
cache-level tests pin how :class:`DerivationCache` uses memo entries —
only a group whose instances re-derive its key in this history, under
the current tool code, ever surfaces as a hit.
"""

from __future__ import annotations

import builtins
import json
import multiprocessing
import os
import time

import pytest

from repro import DesignEnvironment
from repro.execution import (DerivationCache, FaultPlan, FaultSpec,
                             FlowExecutor, ResiliencePolicy,
                             SharedDerivationMemo, encapsulation,
                             shared_memo)
from repro.execution.shared_memo import MEMO_SCHEMA_VERSION
from repro.persistence import load_environment, save_environment
from repro.schema import standard as S
from repro.schema.builder import SchemaBuilder
from repro.tools import register_standard_encapsulations, walking_ones
from tests.conftest import build_performance_flow


class TestMemoLog:
    def test_append_then_poll_roundtrip(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        writer = SharedDerivationMemo(path)
        reader = SharedDerivationMemo(path)
        writer.append([("k1", (("Out", "i1"),), 0.5)])
        assert reader.poll() == [("k1", (("Out", "i1"),), 0.5)]
        # the offset advanced: nothing new, nothing re-read
        assert reader.poll() == []
        writer.append([("k2", (("Out", "i2"),), 0.0)])
        assert [k for k, _, _ in reader.poll()] == ["k2"]
        # a line in the older format, which also carried a registry
        # signature, is still absorbed
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "duration": 0.25, "key": "k3", "outputs": [["Out", "i3"]],
                "sig": "0" * 64, "v": MEMO_SCHEMA_VERSION}) + "\n")
        assert reader.poll() == [("k3", (("Out", "i3"),), 0.25)]
        assert "sig" not in path.read_text().splitlines()[0]

    def test_missing_file_is_empty(self, tmp_path):
        memo = SharedDerivationMemo(tmp_path / "never-written.jsonl")
        assert memo.poll() == []

    def test_rewind_rereads_everything(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        memo = SharedDerivationMemo(path)
        memo.append([("k1", (("Out", "i1"),), 0.0)])
        assert len(memo.poll()) == 1
        memo.rewind()
        assert len(memo.poll()) == 1

    def test_wrong_signature_skipped(self, tmp_path):
        """One log shared by two versions of a tool's code: a reader
        under the current code reuses the current code's lines and
        skips the other's, which name other keys."""
        path = tmp_path / "memo.jsonl"
        env = fan_env()
        env.enable_shared_memo(path)
        env.run(fan_flow(env), cache="readwrite")  # "other code" lines
        env.registry.register(
            "Tool", encapsulation("fan-tool",
                                  lambda ctx, ins: {"ok": -ins["src"]["n"]}))
        current = env.run(fan_flow(env), cache="readwrite")
        assert len(current.results) == 4 and current.cache_hits == 0
        reader = DerivationCache(env.db, env.registry)
        reader.attach_shared_memo(path)
        assert reader.sync() == 8
        executor = env.executor()
        executor.cache = reader
        executor.cache_policy = "reuse"
        report = executor.execute(fan_flow(env))
        assert not report.results
        assert report.cache_hits == 4
        assert reader.stats.invalidated == 0  # skipped, never stale

    def test_wrong_schema_version_skipped(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "key": "k1", "outputs": [["Out", "i1"]],
                "v": MEMO_SCHEMA_VERSION + 1}) + "\n")
        SharedDerivationMemo(path).append([("k2", (("Out", "i2"),), 0.0)])
        assert [k for k, _, _ in SharedDerivationMemo(path).poll()] == ["k2"]

    def test_torn_tail_left_for_next_poll(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        memo = SharedDerivationMemo(path)
        memo.append([("k1", (("Out", "i1"),), 0.0)])
        reader = SharedDerivationMemo(path)
        # a writer died mid-line: no trailing newline
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "k2", "outp')
        assert [k for k, _, _ in reader.poll()] == ["k1"]
        # the torn line completes (as a valid record) later
        with path.open("a", encoding="utf-8") as handle:
            handle.write('uts": [["Out", "i2"]], '
                         '"v": %d, "duration": 0.0}\n'
                         % MEMO_SCHEMA_VERSION)
        assert [k for k, _, _ in reader.poll()] == ["k2"]

    def test_garbage_lines_are_consumed_not_fatal(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        path.write_text("not json\n\x00\xff garbage\n", encoding="utf-8",
                        errors="ignore")
        memo = SharedDerivationMemo(path)
        assert memo.poll() == []
        memo.append([("k1", (("Out", "i1"),), 0.0)])
        assert [k for k, _, _ in memo.poll()] == ["k1"]

    @pytest.mark.parametrize("record", [
        [1, 2],
        {"key": "k0", "outputs": 5, "v": MEMO_SCHEMA_VERSION},
        {"key": "k0", "outputs": [["Out"]], "v": MEMO_SCHEMA_VERSION},
        {"duration": "slow", "key": "k0", "outputs": [["Out", "i0"]],
         "v": MEMO_SCHEMA_VERSION},
        {"duration": None, "key": "k0", "outputs": [["Out", "i0"]],
         "v": MEMO_SCHEMA_VERSION},
    ], ids=["non-object", "outputs-number", "outputs-not-pairs",
            "duration-text", "duration-null"])
    def test_wrong_shape_lines_are_consumed_not_fatal(self, tmp_path,
                                                      record):
        """Valid JSON of the wrong shape is skipped like garbage, so it
        cannot break every later lookup of its directory."""
        path = tmp_path / "memo.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        SharedDerivationMemo(path).append([("k1", (("Out", "i1"),), 0.5)])
        memo = SharedDerivationMemo(path)
        assert memo.poll() == [("k1", (("Out", "i1"),), 0.5)]
        assert memo.poll() == []
        # a cache over the same log still reuses the runs after it
        env = fan_env()
        env.enable_shared_memo(path)
        env.run(fan_flow(env), cache="readwrite")
        cold = DerivationCache(env.db, env.registry)
        cold.attach_shared_memo(path)
        executor = env.executor()
        executor.cache = cold
        executor.cache_policy = "reuse"
        report = executor.execute(fan_flow(env))
        assert not report.results
        assert report.cache_hits == 4

    def test_append_after_torn_tail_keeps_its_first_line(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        memo = SharedDerivationMemo(path)
        memo.append([("k1", (("Out", "i1"),), 0.0)])
        reader = SharedDerivationMemo(path)
        assert [k for k, _, _ in reader.poll()] == ["k1"]
        # a writer died mid-batch: no trailing newline
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "k2", "outp')
        memo.append([("k3", (("Out", "i3"),), 0.0),
                     ("k4", (("Out", "i4"),), 0.0)])
        assert [k for k, _, _ in reader.poll()] == ["k3", "k4"]
        assert [k for k, _, _ in SharedDerivationMemo(path).poll()] == \
            ["k1", "k3", "k4"]


def _hammer(path, worker, count):
    memo = SharedDerivationMemo(path)
    for index in range(count):
        memo.append([(f"w{worker}-k{index}",
                     (("Out", f"w{worker}-i{index}"),), 0.001)])


def _hammer_batches(path, worker, batches, size):
    memo = SharedDerivationMemo(path)
    for batch in range(batches):
        memo.append([(f"w{worker}-b{batch}-e{entry}",
                      (("Out", f"w{worker}-b{batch}-e{entry}"),), 0.001)
                     for entry in range(size)])


def _handshake(path, mine, theirs, status):
    memo = SharedDerivationMemo(path)
    memo.append([(mine, (("Out", mine),), 0.0)])
    seen: set[str] = set()
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        seen.update(key for key, _, _ in memo.poll())
        if theirs in seen:
            status.put((mine, True))
            return
        time.sleep(0.01)
    status.put((mine, False))


class TestCrossProcess:
    def test_concurrent_writers_never_corrupt_the_log(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        context = multiprocessing.get_context("fork")
        writers, per_writer = 4, 25
        processes = [context.Process(target=_hammer,
                                     args=(path, worker, per_writer))
                     for worker in range(writers)]
        for process in processes:
            process.start()
        for process in processes:
            process.join(60)
            assert process.exitcode == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == writers * per_writer
        for line in lines:  # every line is a complete, valid record
            record = json.loads(line)
            assert record["v"] == MEMO_SCHEMA_VERSION
        polled = SharedDerivationMemo(path).poll()
        assert len(polled) == writers * per_writer
        assert len({key for key, _, _ in polled}) == writers * per_writer

    def test_concurrent_batches_land_contiguous(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        context = multiprocessing.get_context("fork")
        writers, batches, size = 4, 10, 5
        processes = [context.Process(target=_hammer_batches,
                                     args=(path, worker, batches, size))
                     for worker in range(writers)]
        for process in processes:
            process.start()
        for process in processes:
            process.join(60)
            assert process.exitcode == 0
        keys = [json.loads(line)["key"] for line
                in path.read_text(encoding="utf-8").splitlines()]
        assert len(set(keys)) == len(keys) == writers * batches * size
        # the log is whole batches back to back, each in its own order
        for start in range(0, len(keys), size):
            batch = keys[start].rsplit("-e", 1)[0]
            assert keys[start:start + size] == \
                [f"{batch}-e{entry}" for entry in range(size)]

    def test_two_processes_observe_each_other(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        context = multiprocessing.get_context("fork")
        status = context.Queue()
        a = context.Process(target=_handshake,
                            args=(path, "key-a", "key-b", status))
        b = context.Process(target=_handshake,
                            args=(path, "key-b", "key-a", status))
        a.start()
        b.start()
        results = dict(status.get(timeout=60) for _ in range(2))
        a.join(60)
        b.join(60)
        assert results == {"key-a": True, "key-b": True}


def fan_env(tmp_path=None):
    builder = SchemaBuilder("fan")
    builder.data("Spec")
    builder.tool("Tool")
    builder.data("Out")
    builder.produced_by("Out", "Tool", inputs=[("src", "Spec")])
    env = DesignEnvironment(builder.build(), user="tester")
    env.install_tool(
        "Tool",
        encapsulation("fan-tool",
                      lambda ctx, ins: {"ok": ins["src"]["n"]}),
        name="t0")
    for index in range(4):
        env.install_data("Spec", {"n": index}, name=f"s{index}")
    return env


def fan_flow(env):
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


PRESETS = ("executor", "parallel_executor", "scheduled_executor",
           "process_executor")


@pytest.fixture
def memo_io(monkeypatch):
    """Every lock, log open and ``fsync`` the shared memo makes."""
    calls: list[str] = []
    enter = shared_memo._FileLock.__enter__
    fsync = os.fsync

    def lock(self):
        calls.append("exclusive" if self.exclusive else "shared")
        return enter(self)

    def open_log(*args, **kwargs):
        calls.append("open")
        return builtins.open(*args, **kwargs)

    def sync(fd):
        calls.append("fsync")
        fsync(fd)

    monkeypatch.setattr(shared_memo._FileLock, "__enter__", lock)
    monkeypatch.setattr(shared_memo, "open", open_log, raising=False)
    monkeypatch.setattr(os, "fsync", sync)
    return calls


class TestRunBatches:
    """A run publishes its memo lines in one locked, fsync'd append when
    it ends, on every executor preset; a poll of an unchanged log
    touches no file."""

    @pytest.mark.parametrize("preset", PRESETS)
    def test_one_locked_fsync_per_run(self, tmp_path, memo_io, preset):
        path = tmp_path / "memo.jsonl"
        env = fan_env()
        env.enable_shared_memo(path)
        executor_of = getattr(env, preset)
        report = executor_of(cache="readwrite").execute(fan_flow(env))
        assert len(report.results) == 4
        assert memo_io.count("fsync") == 1
        assert memo_io.count("exclusive") == 1
        assert len(path.read_text(encoding="utf-8").splitlines()) == 4
        memo_io.clear()
        report = executor_of(cache="reuse").execute(fan_flow(env))
        assert report.cache_hits == 4
        assert memo_io.count("fsync") == memo_io.count("exclusive") == 0
        memo_io.clear()
        assert env.cache.memo.poll() == []
        assert memo_io == []

    def test_attach_carries_runs_over_in_one_append(self, tmp_path,
                                                    memo_io):
        env = fan_env()
        env.run(fan_flow(env), cache="readwrite")  # remembered in memory
        assert memo_io == []
        env.enable_shared_memo(tmp_path / "memo.jsonl")
        assert memo_io.count("fsync") == memo_io.count("exclusive") == 1
        lines = (tmp_path / "memo.jsonl").read_text().splitlines()
        assert len(lines) == 4

    def test_reattach_writes_a_queued_line_once_per_memo(self, tmp_path):
        env = fan_env()
        env.enable_shared_memo(tmp_path / "a.jsonl")
        env.cache.store("k1", [("Out", "i1")])  # queued, not published
        env.enable_shared_memo(tmp_path / "b.jsonl")
        env.cache.publish()
        for name in ("a.jsonl", "b.jsonl"):
            memo = SharedDerivationMemo(tmp_path / name)
            assert [key for key, _, _ in memo.poll()] == ["k1"]

    @pytest.mark.parametrize("preset", PRESETS)
    def test_failed_run_publishes_what_finished(self, tmp_path, preset):
        """Without resilience the first tool error aborts the run; the
        invocations recorded before it are still published."""
        path = tmp_path / "memo.jsonl"
        env = fan_env()
        env.enable_shared_memo(path)
        crash_on = {3}

        def fragile(ctx, inputs):
            if inputs["src"]["n"] in crash_on:
                raise RuntimeError("tool crashed")
            return {"ok": inputs["src"]["n"]}

        env.registry.register("Tool", encapsulation("fan-tool", fragile))
        with pytest.raises(RuntimeError, match="tool crashed"):
            getattr(env, preset)(cache="readwrite").execute(fan_flow(env))
        finished = {instance.instance_id for instance in env.db.instances()
                    if instance.entity_type == "Out"}
        published = [instance_id for _, outputs, _
                     in SharedDerivationMemo(path).poll()
                     for _, instance_id in outputs]
        assert sorted(published) == sorted(finished)
        if preset == "executor":  # one lane: every earlier spec ran
            assert len(finished) == 3
        # the same code, now healthy: a cold cache reuses the finished
        crash_on.clear()
        cold = DerivationCache(env.db, env.registry)
        cold.attach_shared_memo(path)
        executor = getattr(env, preset)()
        executor.cache = cold
        executor.cache_policy = "reuse"
        report = executor.execute(fan_flow(env))
        assert report.cache_hits == len(finished)
        assert len(report.results) == 4 - len(finished)

    def test_interrupted_drain_publishes_what_finished(self, tmp_path,
                                                       monkeypatch):
        """An interrupt that escapes the lane drain itself, between two
        claims, still publishes the invocations recorded before it."""
        path = tmp_path / "memo.jsonl"
        env = fan_env()
        env.enable_shared_memo(path)
        claim = FlowExecutor._claim
        claims = []

        def interrupted(self, run, lane):
            claims.append(lane.name)
            if len(claims) == 3:
                raise KeyboardInterrupt
            return claim(self, run, lane)

        monkeypatch.setattr(FlowExecutor, "_claim", interrupted)
        with pytest.raises(KeyboardInterrupt):
            env.run(fan_flow(env), cache="readwrite")
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2


class TestCacheIntegration:
    def test_memo_populated_by_store(self, tmp_path):
        env = fan_env()
        env.enable_shared_memo(tmp_path / "memo.jsonl")
        env.run(fan_flow(env), cache="readwrite")
        lines = (tmp_path / "memo.jsonl").read_text().splitlines()
        assert len(lines) == 4

    def test_second_run_hits_via_memo_only(self, tmp_path):
        """Memo entries alone (no warm in-memory cache) produce hits."""
        env = fan_env()
        memo_path = tmp_path / "memo.jsonl"
        env.enable_shared_memo(memo_path)
        env.run(fan_flow(env), cache="readwrite")
        # a second cache over the same history, cold except for the memo
        cold = DerivationCache(env.db, env.registry)
        cold.attach_shared_memo(memo_path)
        executor = env.executor()
        executor.cache = cold
        executor.cache_policy = "reuse"
        report = executor.execute(fan_flow(env))
        assert not report.results
        assert report.cache_hits == 4

    def test_foreign_instances_never_surface_as_hits(self, tmp_path):
        """Entries from a run whose records this history never received
        are unusable here — skipped, not treated as stale."""
        memo_path = tmp_path / "memo.jsonl"
        producer = fan_env()
        producer.enable_shared_memo(memo_path)
        producer.run(fan_flow(producer), cache="readwrite")
        # a different environment (fresh history, same tool code) sees
        # the entries but owns none of the recorded instances
        consumer = fan_env()
        consumer.enable_shared_memo(memo_path)
        report = consumer.run(fan_flow(consumer), cache="readwrite")
        assert len(report.results) == 4
        assert report.cache_hits == 0

    def test_signature_guard_rejects_changed_tool_code(self, tmp_path):
        """Every key embeds the code fingerprint of the tool that ran,
        so memo lines written under other tool code never match a
        lookup, although this history holds the instances they name."""
        memo_path = tmp_path / "memo.jsonl"
        env = fan_env()
        env.enable_shared_memo(memo_path)
        env.run(fan_flow(env), cache="readwrite")
        env.registry.register(
            "Tool", encapsulation("fan-tool",
                                  lambda ctx, ins: {"ok": -ins["src"]["n"]}))
        cold = DerivationCache(env.db, env.registry)
        cold.attach_shared_memo(memo_path)
        assert cold.sync() == 4  # every line is read ...
        executor = env.executor()
        executor.cache = cold
        executor.cache_policy = "reuse"
        report = executor.execute(fan_flow(env))
        assert len(report.results) == 4  # ... and none of them hits
        assert report.cache_hits == 0

    def test_memo_entry_never_serves_another_runs_instance(
            self, tmp_path, stocked_env):
        """Two runs of one saved directory record one instance id for
        different stimuli, and only the second saves.  The first run's
        memo line then names an instance this history holds for the
        second run's inputs: reusing the first run's inputs must run
        the simulator again."""
        env = stocked_env
        walk = env.install_data(S.STIMULI, walking_ones(("a", "b", "s")),
                                name="walk")
        save_environment(env, tmp_path)

        def run(stimuli_id, cache):
            loaded = load_environment(tmp_path)
            register_standard_encapsulations(loaded)
            flow, goal = build_performance_flow(
                loaded, netlist_id=env.netlist.instance_id,
                models_id=env.models.instance_id, stimuli_id=stimuli_id,
                simulator_id=env.tools[S.SIMULATOR].instance_id)
            return loaded, loaded.run(flow, cache=cache), goal.produced

        first, _, first_ids = run(env.stimuli.instance_id, "readwrite")
        second, _, second_ids = run(walk.instance_id, "readwrite")
        assert first_ids == second_ids  # one id, two different runs
        save_environment(second, tmp_path)
        third, report, third_ids = run(env.stimuli.instance_id, "reuse")
        assert report.cache_hits == 1  # only the shared circuit
        assert [r.tool_type for r in report.results] == [S.SIMULATOR]
        assert third.db.get(third_ids[0]).data_ref == \
            first.db.get(first_ids[0]).data_ref


class TestDeterminism:
    def test_same_seed_chaos_matches_thread_scheduler(self):
        """Same flow + same-seed fault plan: thread-scheduled and
        process-pool execution leave identical history content."""
        def run(executor_of):
            env = fan_env()
            policy = ResiliencePolicy(retries=2, backoff_base=0.0,
                                      jitter=0.0)
            faults = FaultPlan([FaultSpec("Tool", 2),
                                FaultSpec("Tool", 4)], seed=9)
            report = executor_of(env, policy, faults).execute(
                fan_flow(env))
            digest = sorted((inst.entity_type, inst.data_ref)
                            for inst in env.db.instances())
            return digest, report.retries, faults.fired

        threaded = run(lambda env, policy, faults: env.scheduled_executor(
            machines=2, resilience=policy, faults=faults))
        pooled = run(lambda env, policy, faults: env.process_executor(
            workers=2, resilience=policy, faults=faults))
        assert threaded[0] == pooled[0]
        assert threaded[1] == pooled[1] == 2
        assert threaded[2] == pooled[2]
