"""A reuse hit re-derives nothing that only code or the schema changes.

On a saved corpus scenario, whose schema has no editing task, every
``reuse`` hit is validated from the schema: no backward trace is built
and no history row is read beyond the hit's own members, which the
lookup has already read.  Each code object is hashed on its first
lookup only.  Every count is the same after 8 and after 64 forced
runs, on both history backends.
"""

from __future__ import annotations

import importlib
from collections import Counter

import pytest

from repro.execution import cache as cache_module
from repro.history import consistency
from repro.history.database import HistoryDatabase
from repro.history.store import BACKEND_JSON, BACKEND_SQLITE
from repro.obs.profiling import QueryRecorder
from repro.scenarios import MAIN_FLOW
from tests.test_cache_index import grown_scenario

#: the module, which ``repro.execution.encapsulation`` (a function) hides
encapsulation = importlib.import_module("repro.execution.encapsulation")


def hit_counts(directory, backend, forced, monkeypatch):
    """Per hit: backward traces, validation reads of other rows and
    validation statements; and the code objects looked up, hashed."""
    env = grown_scenario(directory, backend, forced)
    assert env.schema.versioned_families() == frozenset()
    flow = env.plan_flow(MAIN_FLOW)
    counts = Counter()
    validating: list[set[str]] = []
    recorder = QueryRecorder()
    code_fingerprint = encapsulation._code_fingerprint
    code_fingerprint.cache_clear()
    looked_up = []
    trace, validate, get = (consistency.backward_trace,
                            cache_module.all_up_to_date,
                            HistoryDatabase.get)

    def counted_trace(*args, **kwargs):
        counts["traces"] += 1
        return trace(*args, **kwargs)

    def watched_validate(db, instance_ids):
        ids = list(instance_ids)
        counts["validations"] += 1
        validating.append(set(ids))
        db.store.set_query_recorder(recorder)
        try:
            return validate(db, ids)
        finally:
            db.store.set_query_recorder(None)
            validating.pop()

    def watched_get(db, instance_id):
        if validating and instance_id not in validating[-1]:
            counts["other rows"] += 1
        return get(db, instance_id)

    def watched_fingerprint(module, qualname, code):
        looked_up.append((module, qualname, code))
        return code_fingerprint(module, qualname, code)

    monkeypatch.setattr(consistency, "backward_trace", counted_trace)
    monkeypatch.setattr(cache_module, "all_up_to_date", watched_validate)
    monkeypatch.setattr(HistoryDatabase, "get", watched_get)
    monkeypatch.setattr(encapsulation, "_code_fingerprint",
                        watched_fingerprint)
    try:
        report = env.executor(cache="reuse").execute(flow)
    finally:
        monkeypatch.undo()
        env.db.store.close()
    hits = report.cache_hits
    assert hits and report.runs == 0 and counts["validations"] == hits
    statements = sum(entry["count"]
                     for entry in recorder.snapshot().values())
    hashed = code_fingerprint.cache_info().misses
    return ((counts["traces"] / hits, counts["other rows"] / hits,
             statements / hits),
            (len(looked_up), len(set(looked_up)), hashed))


@pytest.mark.parametrize("backend", (BACKEND_JSON, BACKEND_SQLITE))
def test_a_hit_rederives_nothing(backend, tmp_path, monkeypatch):
    few = hit_counts(tmp_path / "few", backend, 8, monkeypatch)
    many = hit_counts(tmp_path / "many", backend, 64, monkeypatch)
    assert few == many
    per_hit, (lookups, code_objects, hashed) = few
    assert per_hit == (0, 0, 0)
    assert hashed == code_objects < lookups
