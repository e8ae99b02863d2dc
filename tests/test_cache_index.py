"""The lazy memo index and the same-derivation shortcut against the eager
reference (``tests/cache_reference.py``).

The cache indexes each memo line in the writer's form by key without
decoding it, decodes only the asked key's lines, newest first, and does
not re-key a group whose derivation record is the lookup's own.  Its
first lookup indexes the memo from the last line back, only until the
asked key has a run to try; later lookups carry on from there, and
lines appended meanwhile are indexed as newer than all of them.
Hypothesis builds random histories (forced reruns, batch inputs with
repeats, two-output runs, compositions, edited inputs, inputs with
identical content) and random memo logs over them (duplicate keys, a
group written twice, torn and wrong-shape lines, old ``sig`` lines,
foreign ids, non-compact encodings).  On every log both caches must
pick the same group and count the same hits, misses, invalidations and
savings, read the same number of entries, hold the same number of keys
and carry the same lines over to a new memo, whether or not ``len()``
indexes the whole memo between lookups.  The count test shows that a
hit's memo decodes, derivation keys and store reads, and the memo
entries a reuse run indexes, do not grow with the number of runs the
directory has seen.
"""

from __future__ import annotations

import json
import pathlib
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DesignEnvironment
from repro.execution import (DerivationCache, cache as cache_module,
                             encapsulation, shared_memo)
from repro.history.instance import DerivationRecord
from repro.history.store import BACKEND_JSON, BACKEND_SQLITE
from repro.obs.profiling import QueryRecorder
from repro.persistence import load_environment, save_environment
from repro.scenarios import (MAIN_FLOW, ScenarioSpec, materialize_scenario,
                             register_corpus_encapsulations)
from repro.schema.builder import SchemaBuilder
from tests.cache_reference import ReferenceCache

#: ``Src`` is an editable source family (a derived ``Src`` is a new
#: version of its ``previous``); ``Out`` and ``Aux`` are one tool's two
#: outputs; ``Pair`` composes them
SCHEMA = (SchemaBuilder("memo-index")
          .tool("Tool")
          .data("Src")
          .data("Out")
          .data("Aux")
          .produced_by("Src", "Tool", inputs=[
              {"type": "Src", "role": "previous", "optional": True}])
          .produced_by("Out", "Tool", inputs=[
              ("a", "Src"), {"type": "Src", "role": "b", "optional": True}])
          .produced_by("Aux", "Tool", inputs=[
              ("a", "Src"), {"type": "Src", "role": "b", "optional": True}])
          .composed("Pair", of=[("out", "Out"), ("aux", "Aux")])
          .build())

OUTPUTS = (("Out",), ("Aux",), ("Aux", "Out"))
DURATIONS = (0.0, 0.5, 1.25, 2.0, 3.0)
ENCODINGS = ("compact", "compact", "compact", "spaced", "unsorted",
             "escaped", "sig", "float-v", "int-duration", "exponent")
GARBAGE = (b"not json", b"[1, 2]", b'{"v":1}', b"\xff\xfe",
           b'{"duration":0.5,"key":"k","outputs":[],"v":1}',
           b'{"duration":"x","key":"k","outputs":[["Out","x"]],"v":1}',
           b'{"duration":0.5,"key":"k","outputs":[["Out"]],"v":1}',
           b'{"duration":0.5,"key":"k","outputs":[["Out","x"]],"v":2}',
           b'{"duration":0.5,"key":"k","outputs":"Out","v":1}')


def memo_line(key, pairs, duration, encoding="compact") -> bytes:
    """One memo line for ``(key, pairs, duration)`` in an encoding the
    writer uses (``compact``) or another that decodes to the same
    entry."""
    record = {"duration": duration, "key": key,
              "outputs": [list(pair) for pair in pairs], "v": 1}
    if encoding == "sig":
        record["sig"] = "0123abcd"  # the older format's extra field
    if encoding == "float-v":
        record["v"] = 1.0
    if encoding == "spaced":
        return json.dumps(record, sort_keys=True).encode()
    if encoding == "unsorted":
        record = dict(reversed(list(record.items())))
        return json.dumps(record, separators=(",", ":")).encode()
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    if encoding == "escaped":  # the first type's first letter escaped
        first = pairs[0][0]
        text = text.replace(f'"outputs":[["{first}', '"outputs":[["'
                            f'\\u{ord(first[0]):04x}{first[1:]}', 1)
    if encoding == "int-duration" and float(duration).is_integer():
        text = text.replace(f'"duration":{float(duration)!r}',
                            f'"duration":{int(duration)}', 1)
    if encoding == "exponent":
        text = text.replace(f'"duration":{float(duration)!r}',
                            f'"duration":{duration * 10:g}E-1', 1)
    return text.encode()


def tool(ctx, inputs):
    return {"made": sorted(inputs)}


def build_history(data: st.DataObject):
    """A random history; returns the environment, a cache to compute
    keys, its runs as ``(key, pairs, lookup)`` and lookups of another
    tool instance that name no run."""
    env = DesignEnvironment(SCHEMA, user="tester")
    tools = [env.install_tool("Tool", encapsulation("memo-tool", tool),
                              name=f"t{index}").instance_id
             for index in range(2)]
    keyer = DerivationCache(env.db, env.registry)
    # repeated contents: inputs with identical content share keys
    sources = [env.install_data("Src", {"n": n}).instance_id
               for n in data.draw(st.lists(st.integers(0, 2), min_size=2,
                                           max_size=4), label="sources")]
    runs: list[tuple[str, tuple, tuple]] = []
    made: dict[str, list[str]] = {"Out": [], "Aux": []}
    serial = 0

    def record(tool_id, combo, types):
        nonlocal serial
        serial += 1
        inputs = tuple(sorted((role, input_id)
                              for role, ids in combo.items()
                              for input_id in ids))
        derivation = DerivationRecord(tool_id, inputs, f"run#{serial:05d}")
        if tool_id is None:
            key = keyer.composition_key(types[0], combo)
        else:
            key = keyer.tool_run_key(tool_id, combo, types)
        pairs = []
        for entity_type in types:
            instance = env.db.record(entity_type, {"serial": serial},
                                     derivation)
            pairs.append((entity_type, instance.instance_id))
            made.setdefault(entity_type, []).append(instance.instance_id)
        runs.append((key, tuple(pairs), (tool_id, combo, types)))

    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        step = data.draw(st.sampled_from(
            ("run", "run", "rerun", "rerun", "compose", "edit")),
            label="step")
        if step == "rerun" and runs:  # a forced rerun: new ids, same key
            record(*data.draw(st.sampled_from(runs), label="rerun")[2])
        elif step == "compose" and made["Out"] and made["Aux"]:
            record(None, {
                "out": [data.draw(st.sampled_from(made["Out"]))],
                "aux": [data.draw(st.sampled_from(made["Aux"]))]},
                ("Pair",))
        elif step == "edit":  # a new version, sometimes of equal content
            old = data.draw(st.sampled_from(sources), label="edited")
            content = data.draw(st.sampled_from(
                (env.db.data(old), {"n": 9})), label="content")
            edited = env.db.record("Src", content, DerivationRecord.make(
                tools[0], {"previous": old}))
            sources.append(edited.instance_id)
        else:
            combo = {"a": data.draw(st.lists(st.sampled_from(sources),
                                             min_size=1, max_size=2),
                                    label="a")}
            if data.draw(st.booleans(), label="b"):
                combo["b"] = [data.draw(st.sampled_from(sources))]
            record(data.draw(st.sampled_from(tools), label="tool"),
                   combo, data.draw(st.sampled_from(OUTPUTS)))
    strays = [(tools[1], {"a": [source]}, ("Out",)) for source in sources]
    return env, keyer, runs, strays


SWAPPED = {"Out": "Aux", "Aux": "Out"}


def near_misses(keyer, runs):
    """For each tool run, the lookups of the same tool and inputs for the
    other output type, with one input repeated, and without repeats;
    each comes with the run's pairs (relabeled to the other type) to
    name under its key."""
    near = []
    for _, pairs, (tool_id, combo, types) in runs:
        if tool_id is None:
            continue
        relabeled = tuple((SWAPPED[t], i) for t, i in pairs)
        role = sorted(combo)[0]
        for named, lookup_combo, lookup_types in (
                (relabeled, combo, tuple(sorted({t for t, _ in relabeled}))),
                (pairs, {**combo, role: combo[role] + combo[role][:1]},
                 types),
                (pairs, {r: sorted(set(ids)) for r, ids in combo.items()},
                 types)):
            near.append((keyer.tool_run_key(tool_id, lookup_combo,
                                            lookup_types),
                         named, (tool_id, lookup_combo, lookup_types)))
    return near


def draw_log(data: st.DataObject, runs, near) -> list[bytes]:
    """Random memo lines over ``runs`` and the ``near`` misses, each with
    its newline."""
    lines = []
    for _ in range(data.draw(st.integers(0, 14), label="lines")):
        kind = data.draw(st.sampled_from(
            ("genuine", "genuine", "genuine", "foreign", "near",
             "unknown", "garbage", "torn")), label="kind")
        key, pairs, _ = data.draw(st.sampled_from(
            near if kind == "near" and near else runs), label="run")
        duration = data.draw(st.sampled_from(DURATIONS), label="duration")
        if kind in ("genuine", "near"):  # maybe in another order
            if data.draw(st.booleans(), label="reorder"):
                pairs = tuple(reversed(pairs))
            line = memo_line(key, pairs, duration, data.draw(
                st.sampled_from(ENCODINGS), label="encoding"))
        elif kind == "foreign":  # another run's ids in this history
            _, other, _ = data.draw(st.sampled_from(runs), label="other")
            line = memo_line(key, other, duration)
        elif kind == "unknown":  # ids this history never recorded
            line = memo_line(key, tuple((t, t + "#9999") for t, _ in pairs),
                             duration)
        elif kind == "garbage":
            line = data.draw(st.sampled_from(GARBAGE), label="garbage")
        else:  # a writer died mid-line; the next writer ended the line
            whole = memo_line(key, pairs, duration)
            line = whole[:data.draw(st.integers(1, len(whole) - 1),
                                    label="cut")]
        lines.append(line + b"\n")
    return lines


def lookup(cache, keyer, source):
    tool_id, combo, types = source
    if tool_id is None:
        key = keyer.composition_key(types[0], combo)
    else:
        key = keyer.tool_run_key(tool_id, combo, types)
    return cache.fetch(key, types, tool_id=tool_id, combo=combo)


def assert_same(new, old) -> None:
    assert new.stats == old.stats
    assert len(new) == len(old)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(st.data())
def test_lookups_match_reference(tmp_path_factory, data):
    env, keyer, runs, strays = build_history(data)
    near = near_misses(keyer, runs)
    if not runs:
        return
    directory = tmp_path_factory.mktemp("memo")
    path = directory / "memo.jsonl"
    lines = draw_log(data, runs, near)
    split = data.draw(st.integers(0, len(lines)), label="split")
    tail = b""
    if data.draw(st.booleans(), label="torn tail"):
        whole = memo_line(*runs[-1][:2], 1.0)
        tail = whole[:data.draw(st.integers(1, len(whole) - 1))]
    path.write_bytes(b"".join(lines[:split]) + tail)

    new = DerivationCache(env.db, env.registry)
    old = ReferenceCache(env.db, env.registry)
    for cache in (new, old):
        cache.attach_shared_memo(path)
    lookups = [source for _, _, source in runs + near] + strays

    def look_up_all():
        for source in data.draw(st.permutations(lookups), label="order"):
            assert lookup(new, keyer, source) == lookup(old, keyer, source)
            assert_same(new, old)

    look_up_all()
    # more lines arrive (after the torn tail, which they end), and a
    # run is stored in process
    with path.open("ab") as handle:
        handle.write(b"".join(lines[split:]))
    assert new.sync() == old.sync()
    if data.draw(st.booleans(), label="store"):
        key, pairs, _ = data.draw(st.sampled_from(runs), label="stored")
        for cache in (new, old):
            cache.store(key, pairs, 0.75)
    look_up_all()
    # a fresh pair of caches reads the whole log on their first lookup
    new = DerivationCache(env.db, env.registry)
    old = ReferenceCache(env.db, env.registry)
    for cache in (new, old):
        cache.attach_shared_memo(path)
    look_up_all()
    # carrying the index over to another memo writes the same lines,
    # undecoded ones included
    for name, cache in (("new.jsonl", new), ("old.jsonl", old)):
        cache.attach_shared_memo(directory / name)
    carried = [(directory / name).read_bytes()
               if (directory / name).exists() else None
               for name in ("new.jsonl", "old.jsonl")]
    assert carried[0] == carried[1]
    assert_same(new, old)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(st.data())
def test_lookups_alone_match_reference(tmp_path_factory, data):
    """Lookups with no ``len()`` or ``sync()`` between them, so the memo
    is indexed back only as far as each lookup needs, while lines are
    appended and runs stored in process between lookups."""
    env, keyer, runs, strays = build_history(data)
    near = near_misses(keyer, runs)
    if not runs:
        return
    directory = tmp_path_factory.mktemp("lazy")
    # one copy of the log per cache: the carry-over at the end publishes
    # each cache's stored runs to its own memo
    paths = (directory / "new-memo.jsonl", directory / "old-memo.jsonl")
    lines = draw_log(data, runs, near)
    split = data.draw(st.integers(0, len(lines)), label="split")
    tail = b""
    if data.draw(st.booleans(), label="torn tail"):
        whole = memo_line(*runs[-1][:2], 1.0)
        tail = whole[:data.draw(st.integers(1, len(whole) - 1))]
    new = DerivationCache(env.db, env.registry)
    old = ReferenceCache(env.db, env.registry)
    for cache, path in zip((new, old), paths):
        path.write_bytes(b"".join(lines[:split]) + tail)
        cache.attach_shared_memo(path)
    lookups = [source for _, _, source in runs + near] + strays
    steps = ["lookup"] + data.draw(st.lists(st.sampled_from(
        ("lookup", "lookup", "lookup", "append", "store")), max_size=24),
        label="steps")
    for step in steps:
        if step == "append":  # ends the torn tail, if any
            count = data.draw(st.integers(1, 3), label="appended")
            for path in paths:
                with path.open("ab") as handle:
                    handle.write(b"".join(lines[split:split + count]))
            split += count
        elif step == "store":
            key, pairs, _ = data.draw(st.sampled_from(runs), label="stored")
            duration = data.draw(st.sampled_from(DURATIONS),
                                 label="stored duration")
            for cache in (new, old):
                cache.store(key, pairs, duration)
        else:
            source = data.draw(st.sampled_from(lookups), label="lookup")
            assert lookup(new, keyer, source) == lookup(old, keyer, source)
            assert new.stats == old.stats
    assert len(new) == len(old)
    for name, cache in (("new.jsonl", new), ("old.jsonl", old)):
        cache.attach_shared_memo(directory / name)
    carried = [(directory / name).read_bytes()
               if (directory / name).exists() else None
               for name in ("new.jsonl", "old.jsonl")]
    assert carried[0] == carried[1]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_scan_back_is_scan_reversed(data):
    """The backward reader yields the entries of every line the forward
    one does, torn, wrong-shape and empty lines included, last first."""
    _, keyer, runs, _ = build_history(data)
    if not runs:
        return
    block = b"".join(draw_log(data, runs, near_misses(keyer, runs)))
    block += b"\n" * data.draw(st.integers(0, 2), label="empty lines")
    assert list(shared_memo.scan_back(block)) == \
        list(shared_memo.scan(block))[::-1]


def test_a_group_written_twice_counts_as_its_newest_record(tmp_path):
    """Runs A, B, then A again: A's newest record is the last line, so A
    is newer than B, and a hit on A saves that record's duration."""
    env = DesignEnvironment(SCHEMA, user="tester")
    tool_id = env.install_tool("Tool", encapsulation("memo-tool", tool),
                               name="t0").instance_id
    source = env.install_data("Src", {"n": 1}).instance_id
    keyer = DerivationCache(env.db, env.registry)
    combo = {"a": [source]}
    key = keyer.tool_run_key(tool_id, combo, ["Out"])
    ids = [env.db.record("Out", {"run": run}, DerivationRecord(
        tool_id, (("a", source),), f"run#{run}")).instance_id
        for run in range(2)]
    path = tmp_path / "memo.jsonl"
    path.write_bytes(b"".join(
        memo_line(key, (("Out", i),), duration) + b"\n"
        for i, duration in ((ids[0], 0.5), (ids[1], 3.0), (ids[0], 1.25))))
    for cache_class in (DerivationCache, ReferenceCache):
        cache = cache_class(env.db, env.registry)
        cache.attach_shared_memo(path)
        hit = cache.fetch(key, ["Out"], tool_id=tool_id, combo=combo)
        assert hit.instance_ids == (ids[0],)
        assert hit.saved == 1.25


# ---------------------------------------------------------------------------
# a hit's cost does not grow with the runs a directory has seen
# ---------------------------------------------------------------------------
class CountingJson:
    """``json`` for the memo module, counting the lines it decodes."""

    def __init__(self) -> None:
        self.decoded = 0

    def loads(self, *args, **kwargs):
        self.decoded += 1
        return json.loads(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(json, name)


def grown_scenario(directory, backend, forced):
    """A saved corpus scenario after ``forced`` forced ``readwrite``
    runs, loaded again with its encapsulations."""
    env = materialize_scenario(ScenarioSpec(
        "s01-diamond", "diamond", seed=2, width=2, depth=2, fanout=2))
    save_environment(env, directory, backend=backend)
    env = load_environment(directory)
    register_corpus_encapsulations(env)
    for _ in range(forced):
        env.executor(cache="readwrite").execute(env.plan_flow(MAIN_FLOW),
                                                force=True)
    save_environment(env, directory)
    env.db.store.close()

    env = load_environment(directory)
    register_corpus_encapsulations(env)
    return env


def counted_scan(scan, counts):
    """``scan`` (or ``scan_back``), counting the entries it hands over."""
    def counted(block):
        for entry in scan(block):
            counts["indexed"] += 1
            yield entry
    return counted


def reuse_counts(directory, backend, forced, monkeypatch):
    """Per hit: memo lines decoded, derivation keys computed and store
    reads by statement; and the memo entries indexed, for a ``reuse``
    run after ``forced`` forced ``readwrite`` runs of a saved corpus
    scenario."""
    env = grown_scenario(directory, backend, forced)
    flow = env.plan_flow(MAIN_FLOW)
    counting = CountingJson()
    keys = Counter()
    derive = DerivationCache._key

    def counted_key(self, **spec):
        keys["keys"] += 1
        return derive(self, **spec)

    monkeypatch.setattr(shared_memo, "json", counting)
    monkeypatch.setattr(DerivationCache, "_key", counted_key)
    for name in ("scan", "scan_back"):
        monkeypatch.setattr(cache_module, name,
                            counted_scan(getattr(shared_memo, name), keys))
    recorder = QueryRecorder()
    env.db.store.set_query_recorder(recorder)
    try:
        report = env.executor(cache="reuse").execute(flow)
    finally:
        env.db.store.set_query_recorder(None)
        monkeypatch.undo()
        env.db.store.close()
    hits = report.cache_hits
    assert hits and report.runs == 0
    reads = {entry["statement"]: entry["count"] / hits
             for entry in recorder.snapshot().values()}
    return (counting.decoded / hits, keys["keys"] / hits, reads,
            keys["indexed"])


@pytest.mark.parametrize("backend", (BACKEND_JSON, BACKEND_SQLITE))
def test_hit_cost_does_not_grow_with_forced_runs(backend, tmp_path,
                                                 monkeypatch):
    few = reuse_counts(tmp_path / "few", backend, 8, monkeypatch)
    many = reuse_counts(tmp_path / "many", backend, 64, monkeypatch)
    assert few == many
    decoded, keys, _, indexed = few
    assert decoded == 1 and keys == 1 and indexed > 0


def test_a_reuse_run_and_save_resolve_no_path(tmp_path, monkeypatch):
    """Saving a loaded directory points its cache at the memo it already
    reads: the paths compare equal as given, and a load, a ``reuse``
    run and a save call no ``Path.resolve``."""
    grown_scenario(tmp_path, BACKEND_JSON, 1).db.store.close()
    resolved = []
    resolve = pathlib.Path.resolve

    def counted_resolve(self, *args, **kwargs):
        resolved.append(self)
        return resolve(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "resolve", counted_resolve)
    env = load_environment(tmp_path)
    register_corpus_encapsulations(env)
    report = env.executor(cache="reuse").execute(env.plan_flow(MAIN_FLOW))
    save_environment(env, tmp_path)
    env.db.store.close()
    assert report.cache_hits and report.runs == 0
    assert resolved == []


def test_blob_answers_are_memoised_only_when_found():
    """A blob's size is read from the store once; a ref that found no
    blob is asked again every time (one size and one alias read)."""
    env = DesignEnvironment(SCHEMA, user="tester")
    store = env.db.datastore
    absent = "0" * 64
    assert absent not in store
    ref = store.put({"n": 1})
    recorder = QueryRecorder()
    env.db.store.set_query_recorder(recorder)
    sizes = [store.size(ref) for _ in range(3)]
    assert absent not in store and absent not in store
    reads = {entry["statement"]: entry["count"]
             for entry in recorder.snapshot().values()}
    assert sizes == [len('{"__map__":[["n",1]]}')] * 3
    assert reads == {"MEM SELECT size FROM blobs BY digest": 1 + 2,
                     "MEM SELECT digest FROM blob_aliases BY alias": 2}
