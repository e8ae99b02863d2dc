"""Shared fixtures for the figure/claim benchmarks.

Every benchmark regenerates its paper artifact (figure structure or
claim table) into the git-ignored ``benchmarks/runs/<name>.txt`` in
addition to the pytest-benchmark timing, so the reproduction outputs
survive the run.  A run leaves the checked-in copies under
``benchmarks/artifacts/`` alone, since several hold host timings: one
changes only when a regenerated file is copied over it on purpose.
"""

from __future__ import annotations

import itertools
import pathlib

import pytest

from repro import DesignEnvironment
from repro.history.sqlite_store import SqliteHistoryStore
from repro.history.synth import SHAPES, SynthHistory, build_history
from repro.schema import standard as S
from repro.schema.standard import odyssey_schema
from repro.tools import (default_models, exhaustive,
                         install_standard_tools, tech_map)
from repro.tools.logic import LogicSpec

RUNS = pathlib.Path(__file__).parent / "runs"


class TickClock:
    def __init__(self, start: float = 1_000_000.0) -> None:
        self._ticks = itertools.count()
        self._start = start

    def __call__(self) -> float:
        return self._start + next(self._ticks)


@pytest.fixture
def write_artifact():
    """Write (and echo) one benchmark's regenerated artifact."""

    def writer(name: str, text: str) -> pathlib.Path:
        RUNS.mkdir(exist_ok=True)
        path = RUNS / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        return path

    return writer


def fresh_env(user: str = "bench") -> DesignEnvironment:
    env = DesignEnvironment(odyssey_schema(), user=user,
                            clock=TickClock())
    env.tools = install_standard_tools(env)  # type: ignore[attr-defined]
    return env


@pytest.fixture
def env() -> DesignEnvironment:
    return fresh_env()


@pytest.fixture
def stocked():
    """Environment with a mux design's source data installed."""
    env = fresh_env()
    spec = LogicSpec.from_equations("mux", "y = (a & ~s) | (b & s)")
    env.spec = spec  # type: ignore[attr-defined]
    env.models = env.install_data(  # type: ignore[attr-defined]
        S.DEVICE_MODELS, default_models(), name="tech")
    env.stimuli = env.install_data(  # type: ignore[attr-defined]
        S.STIMULI, exhaustive(("a", "b", "s"), name="all3"), name="all3")
    env.netlist = env.install_data(  # type: ignore[attr-defined]
        S.EDITED_NETLIST, tech_map(spec), name="mux-gates")
    return env


def synth_pair(size: int, shape: str, seed: int,
               tmp_path: pathlib.Path
               ) -> tuple[SynthHistory, SynthHistory]:
    """The same seeded synthetic history on both storage backends.

    Both builds replay one deterministic workload, so instance ids,
    derivations and timestamps match exactly — the cross-backend
    benchmarks and property tests compare their query results verbatim.
    """
    in_memory = build_history(size, shape, seed=seed)
    sqlite = build_history(
        size, shape, seed=seed,
        store=SqliteHistoryStore(tmp_path / f"synth-{shape}.sqlite"))
    return in_memory, sqlite


@pytest.fixture(params=SHAPES)
def synth_histories(request, tmp_path):
    """Per-shape (in-memory, sqlite) history pair of a modest size."""
    pair = synth_pair(400, request.param, seed=11, tmp_path=tmp_path)
    yield pair
    pair[1].db.store.close()


def build_simulation_flow(env, *, netlist_id=None, stimuli_id=None):
    """The canonical simulate-performance flow over the stocked env."""
    flow, goal = env.goal_flow(S.PERFORMANCE, "simulate")
    flow.expand(goal)
    flow.expand(flow.sole_node_of_type(S.CIRCUIT))
    flow.bind(flow.sole_node_of_type(S.NETLIST),
              netlist_id or env.netlist.instance_id)
    flow.bind(flow.sole_node_of_type(S.DEVICE_MODELS),
              env.models.instance_id)
    flow.bind(flow.sole_node_of_type(S.STIMULI),
              stimuli_id or env.stimuli.instance_id)
    flow.bind(flow.sole_node_of_type(S.SIMULATOR),
              env.tools[S.SIMULATOR].instance_id)
    return flow, goal
