"""Every JSON line obs writes is encoded in one pass.

``render_json`` hands its payload straight to ``json.dumps``, because
every caller passes plain JSON that a ``to_dict()`` built.  A spy on
each module that calls it checks that a payload from every call site
encodes to the same bytes as the two-pass encoder it replaced
(``tests/json_reference.py``), and that the ledger and the profile log
hold those bytes.
"""

from __future__ import annotations

import sys

import pytest

from repro.cli import main
from repro.obs import QueryRecorder, TimerStats, ToolRunStats, render_json
from repro.persistence import LEDGER_FILE, PROFILE_FILE, save_environment
from repro.schema import standard as S
from tests import json_reference as reference
from tests.conftest import build_performance_flow

#: Each module that calls ``render_json``, with the functions in it
#: that do (``<genexpr>``: ``repro ledger export --format json``).
CALL_SITES = {
    ("repro.obs.ledger", "append"),
    ("repro.obs.profiling", "_append_slow"),
    ("repro.obs.profiling", "append_profile"),
    ("repro.cli", "cmd_stats"),
    ("repro.cli", "cmd_events"),
    ("repro.cli", "_follow_events_cli"),
    ("repro.cli", "cmd_health"),
    ("repro.cli", "cmd_ledger"),
    ("repro.cli", "<genexpr>"),
    ("repro.cli", "cmd_trace"),
    ("repro.cli", "cmd_profile"),
}


@pytest.fixture
def encoded(monkeypatch):
    """``(module, caller) -> lines`` of every ``render_json`` call."""
    seen: dict[tuple[str, str], list[str]] = {}
    for module in {module for module, _ in CALL_SITES}:
        def spy(payload, module=module):
            line = render_json(payload)
            assert line == reference.render_json(payload)
            caller = sys._getframe(1).f_code.co_name
            seen.setdefault((module, caller), []).append(line)
            return line

        monkeypatch.setattr(f"{module}.render_json", spy)
    return seen


def test_every_caller_encodes_the_reference_bytes(encoded, stocked_env,
                                                  tmp_path, capsys):
    flow, _ = build_performance_flow(
        stocked_env,
        netlist_id=stocked_env.netlist.instance_id,
        models_id=stocked_env.models.instance_id,
        stimuli_id=stocked_env.stimuli.instance_id,
        simulator_id=stocked_env.tools[S.SIMULATOR].instance_id)
    stocked_env.save_flow("simulate", flow)
    proj = tmp_path / "proj"
    save_environment(stocked_env, proj)
    log = str(tmp_path / "run.jsonl")
    for cache in ("readwrite", "reuse", "off"):
        assert main(["run", str(proj), "simulate", "--force", "--trace",
                     "--profile", "--events", log, "--cache",
                     cache]) == 0
    for argv in (["stats", str(proj), "--json", "--events", log],
                 ["events", log, "--json"],
                 ["events", log, "--json", "--follow", "--duration",
                  "0"],
                 ["health", str(proj), "--json"],
                 ["ledger", "show", str(proj), "--json"],
                 ["ledger", "export", str(proj), "--format", "json"],
                 ["trace", "timeline", str(proj), "--json"],
                 ["profile", "export", str(proj)]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    QueryRecorder(slow_threshold=0.0, slow_log=tmp_path / "slow.jsonl",
                  backend="sqlite").record("SELECT  1", 0.25, rows=3)
    assert set(encoded) == CALL_SITES
    ledger = (proj / LEDGER_FILE).read_text().splitlines()
    assert ledger == encoded[("repro.obs.ledger", "append")]
    profiles = (proj / PROFILE_FILE).read_text().splitlines()
    assert profiles == encoded[("repro.obs.profiling", "append_profile")]


def test_tool_stats_copy_their_timer():
    """``ToolRunStats.to_dict`` copies its timer's fields, as
    ``dataclasses.asdict`` did: the dict is not the frozen timer's own."""
    timer = TimerStats(2, 0.3, 0.15, 0.15, 0.19, 0.2)
    stats = ToolRunStats(invocations=2, runs=2, duration=timer)
    assert render_json(stats.to_dict()) == reference.render_json(stats)
    stats.to_dict()["duration"]["count"] = 99
    assert timer.count == 2
