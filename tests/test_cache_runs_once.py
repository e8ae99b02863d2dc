"""Each remembered run is kept once, in one form, with its newest record.

The cache keys a derivation key's runs by their member set, read off the
outputs JSON in the memo writer's form, and keeps one record of a run
remembered twice, its newest.  Hypothesis feeds it runs whose entity
types and instance ids hold what matters to that key — ``"],["``,
quotes, backslashes, newlines and non-ASCII characters — through
``store``, through memo lines in the writer's form and through the
fallback encodings, each group re-recorded in another order and with a
repeated pair.  The cache must match the eager reference
(``tests/cache_reference.py``) on the groups it picks, its statistics,
its ``sync`` counts, its size and the lines it carries over to another
memo.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DesignEnvironment
from repro.execution import DerivationCache, encapsulation
from repro.history.instance import DerivationRecord
from repro.persistence import load_environment, save_environment
from repro.scenarios import (MAIN_FLOW, ScenarioSpec, materialize_scenario,
                             register_corpus_encapsulations)
from repro.schema.builder import SchemaBuilder
from tests.cache_reference import ReferenceCache
from tests.test_cache_index import memo_line

#: output types: a plain one, whose memo lines are in the writer's form,
#: one ending in ``"],[`` and one holding a backslash, a quote, a
#: newline, ``"],["`` and a non-ASCII letter
PLAIN, CUT, ODD = "Out", 'Q"],[', 'Ä\\ "\n"],["x'
SCHEMA = (SchemaBuilder("odd-strings")
          .tool("Tool")
          .data("Src")
          .data(PLAIN)
          .data(CUT)
          .data(ODD)
          .produced_by(PLAIN, "Tool", inputs=[("a", "Src")])
          .produced_by(CUT, "Tool", inputs=[("a", "Src")])
          .produced_by(ODD, "Tool", inputs=[("a", "Src")])
          .build())
OUTPUTS = ((PLAIN,), (CUT,), (ODD,), (PLAIN, ODD), (CUT, PLAIN))
#: instance ids no history holds, some ending in ``"],[``
FOREIGN = st.one_of(
    st.sampled_from(('x"],[', '"],["', "\\", "\n", "é", PLAIN)),
    st.text(alphabet='"],[\\\né#a', min_size=1, max_size=6))
CHANNELS = ("store", "compact", "compact", "spaced", "sig", "escaped")
DURATIONS = (0.0, 0.5, 2.0)


def tool(ctx, inputs):
    return {"made": sorted(inputs)}


def build_runs(data: st.DataObject):
    """A history of runs of one tool; returns the environment and the
    runs as ``(key, pairs, lookup)``, forced reruns included."""
    env = DesignEnvironment(SCHEMA, user="tester")
    tool_id = env.install_tool("Tool", encapsulation("odd-tool", tool),
                               name="t0").instance_id
    sources = [env.install_data("Src", {"n": n}).instance_id
               for n in range(2)]
    keyer = DerivationCache(env.db, env.registry)
    runs = []
    for serial in range(data.draw(st.integers(1, 5), label="runs")):
        source = data.draw(st.sampled_from(sources), label="source")
        types = data.draw(st.sampled_from(OUTPUTS), label="types")
        derivation = DerivationRecord(tool_id, (("a", source),),
                                      f"run#{serial:05d}")
        pairs = tuple((entity_type,
                       env.db.record(entity_type, {"serial": serial},
                                     derivation).instance_id)
                      for entity_type in types)
        combo = {"a": [source]}
        runs.append((keyer.tool_run_key(tool_id, combo, types), pairs,
                     (tool_id, combo, types)))
    return env, keyer, runs


def draw_events(data: st.DataObject, runs):
    """``(channel, key, pairs, duration)`` records: a run's group or a
    foreign one under a run's key, maybe reordered or with a repeated
    pair."""
    events = []
    for _ in range(data.draw(st.integers(1, 12), label="events")):
        key, pairs, _ = data.draw(st.sampled_from(runs), label="run")
        if data.draw(st.booleans(), label="foreign"):
            pairs = tuple((entity_type, data.draw(FOREIGN, label="id"))
                          for entity_type, _ in pairs)
        variant = data.draw(st.sampled_from(("as is", "reversed",
                                             "repeated")), label="variant")
        if variant == "reversed":
            pairs = tuple(reversed(pairs))
        elif variant == "repeated":
            pairs = pairs + pairs[:1]
        events.append((data.draw(st.sampled_from(CHANNELS), label="channel"),
                       key, pairs,
                       data.draw(st.sampled_from(DURATIONS),
                                 label="duration")))
    return events


def lookup(cache, keyer, source):
    tool_id, combo, types = source
    return cache.fetch(keyer.tool_run_key(tool_id, combo, types), types,
                       tool_id=tool_id, combo=combo)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(st.data())
def test_odd_strings_match_reference(tmp_path_factory, data):
    env, keyer, runs = build_runs(data)
    events = draw_events(data, runs)
    directory = tmp_path_factory.mktemp("odd")
    paths = [directory / "new.jsonl", directory / "old.jsonl"]
    caches = [DerivationCache(env.db, env.registry),
              ReferenceCache(env.db, env.registry)]
    for cache, path in zip(caches, paths):
        cache.attach_shared_memo(path)
    new, old = caches

    def look_up_all():
        assert new.sync() == old.sync()
        for _, _, source in runs:
            assert lookup(new, keyer, source) == lookup(old, keyer, source)
        assert new.stats == old.stats
        assert len(new) == len(old)

    for channel, key, pairs, duration in events:
        if channel == "store":
            for cache in caches:
                cache.store(key, pairs, duration)
                cache.publish()
        else:
            line = memo_line(key, pairs, duration, channel) + b"\n"
            for path in paths:
                with path.open("ab") as handle:
                    handle.write(line)
        if data.draw(st.booleans(), label="look up"):
            look_up_all()
    look_up_all()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    # a fresh pair reads the whole memo, then carries its index over
    fresh = [DerivationCache(env.db, env.registry),
             ReferenceCache(env.db, env.registry)]
    for cache, path in zip(fresh, paths):
        cache.attach_shared_memo(path)
    new, old = fresh
    look_up_all()
    for cache, name in zip(fresh + caches, ("a", "b", "c", "d")):
        cache.attach_shared_memo(directory / f"carried-{name}.jsonl")
    carried = [(directory / f"carried-{name}.jsonl").read_bytes()
               for name in "abcd"]
    assert carried[0] == carried[1]
    assert carried[2] == carried[3]


def test_a_published_run_is_kept_once(tmp_path):
    """A run this process stored and published is read back from the
    memo by the next ``sync``; the key still holds it once."""
    env = materialize_scenario(ScenarioSpec(
        "s01-diamond", "diamond", seed=2, width=2, depth=2, fanout=2))
    save_environment(env, tmp_path)
    env = load_environment(tmp_path)
    register_corpus_encapsulations(env)
    report = env.executor(cache="readwrite").execute(
        env.plan_flow(MAIN_FLOW))
    assert report.runs == 5
    cache = env.cache
    assert cache.sync() == 5  # the run's own lines, read back
    assert len(cache) == 5
    assert [len(entry.newest_first())
            for entry in cache._entries.values()] == [1] * 5
