"""The one obs log reader against the two it replaced, and its errors.

``tests/obs_reader_reference.py`` keeps the full-read and follow readers
that :class:`repro.obs.sinks.JSONLReader` merged.  On random logs —
valid objects, blank lines, non-objects, corrupt lines mid-file and at
the tail, an unterminated tail, and growth, rewrites and deletion
between follow polls — both must yield the same ``(lineno, object)``
sequence and end in the same exception with the same message, except
that a follow starts a log created after a deletion afresh, where the
old reader resumed at its old offset.  The logs
hold no carriage returns: the old readers read in text mode, which
splits lines at a lone ``\\r`` too, while every obs writer ends a line
with ``\\n`` alone.

Then each obs log with one wrong-shape record: the command that reads
it prints ``error: <path>:<line>: ...`` and exits 2, and a missing log
is named by its own kind.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ObservabilityError
from repro.obs import (FLOW_STARTED, Event, JSONLSink, RunLedger,
                       RunRecord, append_profile, find_profile,
                       read_events)
from repro.obs.sinks import JSONLReader
from repro.persistence import LEDGER_FILE, PROFILE_FILE, TRACE_FILE
from tests import obs_reader_reference as reference

TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                             blacklist_characters="\r\n"), max_size=8)
ASCII = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e),
                max_size=8)


def _objects(text: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    scalars = st.one_of(st.none(), st.booleans(), st.integers(), text)
    return st.builds(
        lambda spec, ascii_only: json.dumps(spec, ensure_ascii=ascii_only),
        st.dictionaries(text, scalars, max_size=3), st.booleans())


def _lines(text: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    obj = _objects(text)
    return st.one_of(
        obj, obj,
        st.sampled_from(["", "  ", "\t"]),
        st.sampled_from(["[1, 2]", '"s"', "3", "null", "[]"]),
        text.filter(lambda line: line.strip() != ""),
        st.builds(lambda line, cut: line[:cut], obj, st.integers(1, 12)),
    )


def _logs(text: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """Log text: lines, each newline-terminated unless it is the last."""
    return st.builds(lambda lines, torn: "\n".join(lines)
                     + ("" if torn or not lines else "\n"),
                     st.lists(_lines(text), max_size=6), st.booleans())


def _outcome(records) -> tuple[list, tuple[type, str] | None]:
    seen = []
    try:
        for record in records:
            seen.append(record)
    except Exception as error:  # the exception is part of the outcome
        return seen, (type(error), str(error))
    return seen, None


@settings(max_examples=300, deadline=None)
@given(log=_logs(TEXT), strict=st.booleans())
def test_full_read_matches_reference(log, strict):
    with tempfile.TemporaryDirectory() as scratch:
        path = pathlib.Path(scratch) / "log.jsonl"
        path.write_text(log, encoding="utf-8")
        assert _outcome(JSONLReader(path).read(strict=strict)) == \
            _outcome(reference.iter_jsonl_objects(path, strict=strict))


#: Changes to the log between two follow polls.  A log that is only
#: appended to may hold any text.  One that is also rewritten or deleted
#: holds ASCII: a file rewritten in place no smaller than what was read
#: is noticed by neither reader, and the old one, seeking by character,
#: would then start mid-way through a multi-byte character.
_GROWTH = st.one_of(
    st.tuples(st.just("append"), _logs(TEXT)),
    st.tuples(st.just("append"), TEXT),
    st.tuples(st.just("wait"), st.just("")),
)
_CHURN = st.one_of(
    st.tuples(st.just("append"), _logs(ASCII)),
    st.tuples(st.just("append"), ASCII),
    st.tuples(st.just("rewrite"), _logs(ASCII)),
    st.tuples(st.just("delete"), st.just("")),
    st.tuples(st.just("wait"), st.just("")),
)


def _scenarios(text, steps):
    return st.tuples(st.one_of(st.none(), _logs(text)),
                     st.lists(steps, max_size=5))


def _apply(path: pathlib.Path, step: tuple[str, str]) -> None:
    action, text = step
    if action == "append":
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(text)
    elif action == "rewrite":
        path.write_text(text, encoding="utf-8")
    elif action == "delete":
        path.unlink(missing_ok=True)


def _follow(follow, path, initial, steps):
    path.unlink(missing_ok=True)
    if initial is not None:
        path.write_text(initial, encoding="utf-8")
    remaining = list(steps)
    return _outcome(follow(path, poll_interval=0.0,
                           sleep=lambda _: _apply(path, remaining.pop(0)),
                           stop=lambda: not remaining))


def _follow_afresh_after_deletions(path, initial, steps):
    """The old reader's outcome with a new reader for each file a
    deletion makes room for: records of one file after another."""
    segments = [(initial, [])]
    for step in steps:
        if step[0] == "delete":
            segments.append((None, []))
        else:
            segments[-1][1].append(step)
    seen: list = []
    for first, segment in segments:
        records, error = _follow(reference.follow_jsonl_objects, path,
                                 first, segment)
        seen += records
        if error is not None:
            return seen, error
    return seen, None


@settings(max_examples=300, deadline=None)
@given(scenario=st.one_of(_scenarios(TEXT, _GROWTH),
                          _scenarios(ASCII, _CHURN)))
def test_follow_matches_reference(scenario):
    initial, steps = scenario
    with tempfile.TemporaryDirectory() as scratch:
        path = pathlib.Path(scratch) / "log.jsonl"
        assert _follow(lambda path, **settings:
                       JSONLReader(path).follow(**settings),
                       path, initial, steps) == \
            _follow_afresh_after_deletions(path, initial, steps)


@pytest.mark.parametrize("replace", ["rename", "delete"])
def test_follow_restarts_on_a_replaced_log(replace, tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"old": 1}\n', encoding="utf-8")
    longer = '{"new": 1}\n{"new": 2}\n'

    def swap(_):
        if replace == "rename":
            (tmp_path / "next.jsonl").write_text(longer, encoding="utf-8")
            (tmp_path / "next.jsonl").replace(path)
        else:
            path.unlink()
            path.write_text(longer, encoding="utf-8")
        swapped.append(True)

    swapped: list[bool] = []
    records = list(JSONLReader(path).follow(poll_interval=0.0,
                                            sleep=swap,
                                            stop=lambda: bool(swapped)))
    assert records == [(1, {"old": 1}), (1, {"new": 1}), (2, {"new": 2})]


def test_follow_reads_the_file_whose_identity_it_checked(tmp_path,
                                                         monkeypatch):
    """The log grows and is then replaced just after a poll checked its
    identity: that poll reads the rest of the file it checked, never the
    new file from the old offset, and the next poll starts over."""
    path = tmp_path / "log.jsonl"
    path.write_text('{"old": 1}\n', encoding="utf-8")
    samestat = os.path.samestat
    checks: list[bool] = []
    polls: list[None] = []

    def grow(_):
        if not polls:
            with open(path, "a", encoding="utf-8") as log:
                log.write('{"old": 2}\n')
        polls.append(None)

    def check_then_replace(held, current):
        same = samestat(held, current)
        if not checks:
            path.unlink()
            path.write_text('{"new": 10}\n{"new": 20}\n', encoding="utf-8")
        checks.append(same)
        return same

    monkeypatch.setattr(os.path, "samestat", check_then_replace)
    records = list(JSONLReader(path).follow(
        poll_interval=0.0, sleep=grow,
        stop=lambda: len(checks) == 2 or len(polls) == 4))
    assert records == [(1, {"old": 1}), (2, {"old": 2}),
                       (1, {"new": 10}), (2, {"new": 20})]


# ---------------------------------------------------------------------------
# one wrong-shape record per log: a typed error naming path and line
# ---------------------------------------------------------------------------
def _run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().err


def _valid_event(seq: int) -> dict:
    return Event(seq=seq, event_type=FLOW_STARTED, timestamp=1.0,
                 flow="f").to_dict()


def _lines_to(path: pathlib.Path, *specs: dict) -> pathlib.Path:
    path.write_text("".join(json.dumps(spec) + "\n" for spec in specs),
                    encoding="utf-8")
    return path


def test_event_without_timestamp(tmp_path, capsys):
    bad = _valid_event(2)
    del bad["timestamp"]
    log = _lines_to(tmp_path / "run.jsonl", _valid_event(1), bad)
    code, err = _run(capsys, "events", str(log))
    assert code == 2
    assert err.startswith(f"error: {log}:2: malformed record (KeyError: ")
    assert "timestamp" in err


def test_span_without_trace_id(tmp_path, capsys):
    span = {"span_id": "s000001", "parent_id": None, "name": "run",
            "kind": "run", "start": 0.0, "end": 1.0}
    _lines_to(tmp_path / TRACE_FILE, {**span, "trace_id": "t1"}, span)
    code, err = _run(capsys, "trace", "show", str(tmp_path))
    assert code == 2
    assert err.startswith(f"error: {tmp_path / TRACE_FILE}:2: malformed "
                          "record (KeyError: ")
    assert "trace_id" in err


@pytest.mark.parametrize("command", [("ledger", "show"), ("health",)])
def test_ledger_tool_duration_without_fields(tmp_path, capsys, command):
    record = {"run_id": "r1", "flow": "f",
              "tools": {"Sim": {"invocations": 1, "duration": {"count": 1}}}}
    _lines_to(tmp_path / LEDGER_FILE, record)
    code, err = _run(capsys, *command, str(tmp_path))
    assert code == 2
    assert err.startswith(f"error: {tmp_path / LEDGER_FILE}:1: malformed "
                          "record (TypeError: ")


def test_profile_with_list_of_stacks(tmp_path, capsys):
    append_profile(tmp_path / PROFILE_FILE, {"run_id": "ok", "stacks": {}})
    append_profile(tmp_path / PROFILE_FILE,
                   {"run_id": "bad", "stacks": ["T;a 1"]})
    code, err = _run(capsys, "profile", "show", str(tmp_path))
    assert code == 2
    assert err.startswith(f"error: {tmp_path / PROFILE_FILE}:2: malformed "
                          "record (AttributeError: ")


def test_profile_of_another_schema_names_its_line(tmp_path, capsys):
    append_profile(tmp_path / PROFILE_FILE, {"run_id": "ok", "stacks": {}})
    append_profile(tmp_path / PROFILE_FILE,
                   {"schema_version": "profile2.v1", "run_id": "new",
                    "stacks": {}})
    code, err = _run(capsys, "profile", "show", str(tmp_path))
    assert code == 2
    assert err.startswith(f"error: {tmp_path / PROFILE_FILE}:2: "
                          "unsupported profile schema version")


#: The three commands that replay an event log into metrics.
METRIC_REPLAYS = (("events", "{log}", "--replay"),
                  ("stats", "{proj}", "--events", "{log}"),
                  ("ledger", "export", "{proj}", "--events", "{log}"))


@pytest.mark.parametrize("command", METRIC_REPLAYS,
                         ids=lambda command: command[0])
def test_metric_replays_drop_a_torn_tail(tmp_path, capsys, command):
    """A killed writer's partial last line is dropped, as ``repro
    events`` drops it; a corrupt line mid-file is still an error."""
    proj = tmp_path / "proj"
    assert main(["init", str(proj)]) == 0
    intact = _lines_to(tmp_path / "intact.jsonl",
                       *(_valid_event(seq) for seq in (1, 2, 3)))
    torn = tmp_path / "torn.jsonl"
    torn.write_text(intact.read_text(encoding="utf-8")
                    + json.dumps(_valid_event(4))[:20], encoding="utf-8")
    capsys.readouterr()
    outputs = []
    for log in (intact, torn):
        argv = [arg.format(log=log, proj=proj) for arg in command]
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert ("flows: 3 started" in outputs[0]
            or "repro_flows_started_total 3" in outputs[0])
    broken = tmp_path / "broken.jsonl"
    lines = intact.read_text(encoding="utf-8").splitlines(keepends=True)
    broken.write_text(lines[0] + "{not json\n" + "".join(lines[1:]),
                      encoding="utf-8")
    code, err = _run(capsys, *(arg.format(log=broken, proj=proj)
                               for arg in command))
    assert code == 2
    assert err.startswith(f"error: {broken}:2: corrupt line")


def test_missing_log_names_its_kind(tmp_path, capsys):
    code, err = _run(capsys, "trace", "show", str(tmp_path))
    assert (code, err) == (2, f"error: no trace log at "
                              f"{tmp_path / TRACE_FILE}\n")
    code, err = _run(capsys, "events", str(tmp_path / "run.jsonl"))
    assert (code, err) == (2, f"error: no event log at "
                              f"{tmp_path / 'run.jsonl'}\n")


def test_wrong_schema_version_names_its_line(tmp_path):
    log = tmp_path / "run.jsonl"
    with JSONLSink(log) as sink:
        sink.handle(Event(seq=1, event_type=FLOW_STARTED, timestamp=1.0))
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({**_valid_event(2),
                                 "schema_version": "obs2.v1"}) + "\n")
    with pytest.raises(ObservabilityError,
                       match=rf"^{log}:2: unsupported event schema"):
        read_events(log)


def test_run_lookup_prefers_an_exact_id(tmp_path):
    """Ledger and profile records share one lookup: an exact id wins
    (its latest record), else a prefix must name one run."""
    ledger = RunLedger(tmp_path / LEDGER_FILE)
    for index, run_id in enumerate(("abc", "abcd", "abc")):
        ledger.append(RunRecord(run_id=run_id, timestamp=float(index),
                                flow="f", executor="sequential",
                                cache_policy="off"))
    assert ledger.find("abc").timestamp == 2.0
    with pytest.raises(ObservabilityError, match="ambiguous"):
        ledger.find("ab")
    profiles = ({"run_id": "run1"}, {"run_id": "run10"})
    assert find_profile(profiles, "run1") is profiles[0]
    with pytest.raises(ObservabilityError, match="ambiguous"):
        find_profile(profiles, "run")
