"""Seeded scenario-corpus generator (the ``corpus.v1`` contract).

A corpus is a deterministic function of one integer seed: a set of
*scenarios*, each a valid task schema plus a bound flow template
spanning one of the five dependency shapes real design networks are
built from (SNIPPETS §3):

* ``independent`` — ``width`` disjoint source→tool→output branches;
* ``chain`` — one linear derivation chain of length ``depth``;
* ``diamond`` — a source fanning into two chains of length ``depth``
  that re-join;
* ``fork_join`` — one source consumed by ``fanout`` parallel tools
  whose outputs a join tool merges;
* ``pipeline`` — ``width`` parallel lanes through ``depth`` stages,
  with each stage's tool type *shared* across lanes.

Because every tool is synthetic and seed-derived
(:mod:`repro.scenarios.synthetic`), the generator can compute the
complete expected history — per-type ``data_ref`` digests and the
run count — *offline*, by pure simulation, and bake it into the
manifest.  ``repro corpus run`` then checks real executor output
against the manifest, which is what makes the corpus a differential
test matrix: every executor × backend combination must land on the
same digests the simulation predicted.

The manifest (``corpus.json``) is written with sorted keys, fixed
indentation and no timestamps, so the same seed regenerates the same
bytes — CI gates on that.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..errors import ReproError
from ..execution.context import DesignEnvironment
from ..history.datastore import DataStore
from ..schema.builder import SchemaBuilder
from ..schema.schema import TaskSchema
from .synthetic import (SALT_MARKER, canonical_json, corpus_digest,
                        derived_payload, register_corpus_encapsulations,
                        source_payload)

CORPUS_FORMAT = "corpus.v1"
CORPUS_FILE = "corpus.json"
#: Every scenario environment catalogs its flow under this name.
MAIN_FLOW = "main"

SHAPE_INDEPENDENT = "independent"
SHAPE_CHAIN = "chain"
SHAPE_DIAMOND = "diamond"
SHAPE_FORK_JOIN = "fork_join"
SHAPE_PIPELINE = "pipeline"
SHAPES = (SHAPE_INDEPENDENT, SHAPE_CHAIN, SHAPE_DIAMOND,
          SHAPE_FORK_JOIN, SHAPE_PIPELINE)


@dataclass(frozen=True)
class ScenarioNode:
    """One entity type of a scenario: a source or a derived node.

    ``inputs`` name the consumed data types; the input role equals the
    consumed type name (the schema's default role).  The node list of a
    scenario is emitted in topological order, which the simulation and
    the flow builder both rely on.
    """

    entity_type: str
    tool_type: str | None
    inputs: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScenarioSpec:
    """The deterministic recipe for one generated scenario."""

    scenario_id: str
    shape: str
    seed: int
    width: int
    depth: int
    fanout: int


@dataclass(frozen=True)
class CorpusSpec:
    """Generator parameters: one seed, one size point, five shapes."""

    seed: int = 0
    width: int = 2
    depth: int = 2
    fanout: int = 2
    per_shape: int = 1
    shapes: tuple[str, ...] = SHAPES


# ---------------------------------------------------------------------------
# the five dependency shapes
# ---------------------------------------------------------------------------
def _independent(spec: ScenarioSpec) -> list[ScenarioNode]:
    nodes: list[ScenarioNode] = []
    for index in range(spec.width):
        nodes.append(ScenarioNode(f"Src{index}", None))
        nodes.append(ScenarioNode(f"Out{index}", f"Make{index}",
                                  (f"Src{index}",)))
    return nodes


def _chain(spec: ScenarioSpec) -> list[ScenarioNode]:
    nodes = [ScenarioNode("Src0", None)]
    previous = "Src0"
    for stage in range(1, spec.depth + 1):
        nodes.append(ScenarioNode(f"Stage{stage}", f"Step{stage}",
                                  (previous,)))
        previous = f"Stage{stage}"
    return nodes


def _diamond(spec: ScenarioSpec) -> list[ScenarioNode]:
    nodes = [ScenarioNode("Src0", None)]
    tips: list[str] = []
    for branch in ("A", "B"):
        previous = "Src0"
        for stage in range(1, spec.depth + 1):
            name = f"{branch}{stage}"
            nodes.append(ScenarioNode(name, f"Walk{branch}{stage}",
                                      (previous,)))
            previous = name
        tips.append(previous)
    nodes.append(ScenarioNode("Join", "Merge", tuple(tips)))
    return nodes


def _fork_join(spec: ScenarioSpec) -> list[ScenarioNode]:
    nodes = [ScenarioNode("Src0", None)]
    forks: list[str] = []
    for index in range(spec.fanout):
        name = f"Fork{index}"
        nodes.append(ScenarioNode(name, f"Split{index}", ("Src0",)))
        forks.append(name)
    nodes.append(ScenarioNode("Join", "Merge", tuple(forks)))
    return nodes


def _pipeline(spec: ScenarioSpec) -> list[ScenarioNode]:
    """Lanes × stages with stage tool types shared across lanes."""
    nodes: list[ScenarioNode] = []
    for lane in range(spec.width):
        nodes.append(ScenarioNode(f"Lane{lane}In", None))
        previous = f"Lane{lane}In"
        for stage in range(1, spec.depth + 1):
            name = f"Lane{lane}S{stage}"
            nodes.append(ScenarioNode(name, f"Stage{stage}",
                                      (previous,)))
            previous = name
    return nodes


_SHAPE_BUILDERS: dict[str, Callable[[ScenarioSpec],
                                    list[ScenarioNode]]] = {
    SHAPE_INDEPENDENT: _independent,
    SHAPE_CHAIN: _chain,
    SHAPE_DIAMOND: _diamond,
    SHAPE_FORK_JOIN: _fork_join,
    SHAPE_PIPELINE: _pipeline,
}


def scenario_nodes(spec: ScenarioSpec) -> tuple[ScenarioNode, ...]:
    """The scenario's node list, topologically ordered."""
    try:
        builder = _SHAPE_BUILDERS[spec.shape]
    except KeyError:
        raise ReproError(
            f"unknown scenario shape {spec.shape!r}; choose from "
            f"{', '.join(SHAPES)}") from None
    if spec.width < 1 or spec.depth < 1 or spec.fanout < 2:
        raise ReproError(
            f"scenario {spec.scenario_id!r}: need width >= 1, "
            f"depth >= 1 and fanout >= 2, got width={spec.width} "
            f"depth={spec.depth} fanout={spec.fanout}")
    return tuple(builder(spec))


# ---------------------------------------------------------------------------
# seed-derived salts and the offline simulation
# ---------------------------------------------------------------------------
def tool_salts(spec: ScenarioSpec) -> dict[str, str]:
    """Per-tool-type salt; rides in the schema and the manifest."""
    salts: dict[str, str] = {}
    for node in scenario_nodes(spec):
        if node.tool_type is not None and node.tool_type not in salts:
            salts[node.tool_type] = corpus_digest(
                f"tool:{spec.seed}:{spec.scenario_id}:"
                f"{node.tool_type}")[:16]
    return salts


def source_salt(spec: ScenarioSpec) -> str:
    """The salt all of one scenario's source payloads derive from."""
    return corpus_digest(f"source:{spec.seed}:{spec.scenario_id}")[:16]


def simulate_payloads(spec: ScenarioSpec) -> dict[str, Any]:
    """Every data object a full run will produce, computed offline.

    Walks the node list in topological order applying the same pure
    payload functions the registered synthetic tools run, so a correct
    executor — any executor — must land on exactly these objects.
    """
    salts = tool_salts(spec)
    sources = source_salt(spec)
    payloads: dict[str, Any] = {}
    for node in scenario_nodes(spec):
        if node.tool_type is None:
            payloads[node.entity_type] = source_payload(
                sources, node.entity_type)
        else:
            inputs = {name: payloads[name] for name in node.inputs}
            payloads[node.entity_type] = derived_payload(
                salts[node.tool_type], node.entity_type, inputs)
    return payloads


def expected_signature(spec: ScenarioSpec) -> list[tuple[str, str]]:
    """The (entity type, data_ref) multiset a completed run must show.

    Uses a scratch :class:`DataStore` so the digests go through the
    exact canonical-encoding path the history database uses, including
    the codec wrapping of dicts — no duplicated hashing logic.
    """
    store = DataStore()
    pairs: list[tuple[str, str]] = []
    for tool_type in tool_salts(spec):
        # install_tool's default descriptor for a code-only tool
        pairs.append((tool_type,
                      store.put({"tool": tool_type, "name": ""})))
    for entity_type, payload in simulate_payloads(spec).items():
        pairs.append((entity_type, store.put(payload)))
    return sorted(pairs)


def signature_digest(pairs: Iterable[tuple[str, str]]) -> str:
    """One digest over a history signature (manifest + CI currency)."""
    return corpus_digest(canonical_json([list(pair)
                                         for pair in sorted(pairs)]))


def history_signature(env: DesignEnvironment) -> list[tuple[str, str]]:
    """(entity type, content digest) multiset of a live history."""
    return sorted((instance.entity_type, instance.data_ref)
                  for instance in env.db.instances())


# ---------------------------------------------------------------------------
# schema + environment materialization
# ---------------------------------------------------------------------------
def build_scenario_schema(spec: ScenarioSpec) -> TaskSchema:
    """A validated task schema for one scenario."""
    builder = SchemaBuilder(spec.scenario_id)
    salts = tool_salts(spec)
    for tool_type, salt in salts.items():
        builder.tool(tool_type, description=SALT_MARKER + salt)
    nodes = scenario_nodes(spec)
    for node in nodes:
        builder.data(node.entity_type,
                     description=f"{spec.shape} scenario node")
    for node in nodes:
        if node.tool_type is not None:
            builder.produced_by(node.entity_type, node.tool_type,
                                inputs=list(node.inputs))
    return builder.build()


def materialize_scenario(spec: ScenarioSpec, *, user: str = "corpus",
                         clock: Callable[[], float] | None = None
                         ) -> DesignEnvironment:
    """A ready-to-run environment: tools installed, sources bound.

    The returned environment catalogs one fully bound flow under
    :data:`MAIN_FLOW`; running it derives every non-source node.
    """
    env = DesignEnvironment(build_scenario_schema(spec), user=user,
                            clock=clock)
    register_corpus_encapsulations(env)
    nodes = scenario_nodes(spec)
    tool_instances: dict[str, str] = {}
    for node in nodes:
        if node.tool_type is not None \
                and node.tool_type not in tool_instances:
            tool_instances[node.tool_type] = env.install_tool(
                node.tool_type).instance_id
    sources = source_salt(spec)
    flow = env.new_flow(MAIN_FLOW)
    placed: dict[str, Any] = {}
    for node in nodes:
        if node.tool_type is None:
            instance = env.install_data(
                node.entity_type,
                source_payload(sources, node.entity_type),
                name=node.entity_type)
            flow_node = flow.graph.add_node(node.entity_type)
            flow_node.bind(instance.instance_id)
        else:
            flow_node = flow.place(node.entity_type)
        placed[node.entity_type] = flow_node
    for node in nodes:
        if node.tool_type is None:
            continue
        tool_node = flow.graph.add_node(node.tool_type)
        tool_node.bind(tool_instances[node.tool_type])
        flow.connect(placed[node.entity_type], tool_node)
        for input_type in node.inputs:
            flow.connect(placed[node.entity_type], placed[input_type],
                         role=input_type)
    env.save_flow(MAIN_FLOW, flow,
                  description=f"{spec.shape} corpus scenario "
                              f"(seed {spec.seed})")
    return env


# ---------------------------------------------------------------------------
# the corpus.v1 manifest
# ---------------------------------------------------------------------------
def scenario_entry(spec: ScenarioSpec) -> dict[str, Any]:
    """One scenario's manifest entry, expected digests included."""
    nodes = scenario_nodes(spec)
    pairs = expected_signature(spec)
    refs: dict[str, str] = {}
    for entity_type, ref in pairs:
        refs[entity_type] = ref
    return {
        "scenario_id": spec.scenario_id,
        "shape": spec.shape,
        "seed": spec.seed,
        "width": spec.width,
        "depth": spec.depth,
        "fanout": spec.fanout,
        "flow": MAIN_FLOW,
        "nodes": [
            {"type": node.entity_type, "tool": node.tool_type,
             "inputs": list(node.inputs)}
            for node in nodes
        ],
        "tool_salts": tool_salts(spec),
        "source_salt": source_salt(spec),
        "expected": {
            "instances": len(pairs),
            "runs": sum(1 for node in nodes
                        if node.tool_type is not None),
            "data_refs": refs,
            "history_digest": signature_digest(pairs),
        },
    }


def manifest_digest(body: dict[str, Any]) -> str:
    """Digest over the manifest body, excluding the digest field."""
    trimmed = {key: value for key, value in body.items()
               if key != "digest"}
    return corpus_digest(canonical_json(trimmed))


def generate_corpus(corpus: CorpusSpec) -> dict[str, Any]:
    """The complete, self-describing corpus manifest for one seed."""
    if corpus.per_shape < 1:
        raise ReproError(
            f"per_shape must be >= 1, got {corpus.per_shape}")
    scenarios: list[dict[str, Any]] = []
    index = 0
    for shape in corpus.shapes:
        if shape not in SHAPES:
            raise ReproError(
                f"unknown scenario shape {shape!r}; choose from "
                f"{', '.join(SHAPES)}")
        for _ in range(corpus.per_shape):
            scenario_id = f"s{index:02d}-{shape}"
            seed = int(corpus_digest(
                f"scenario:{corpus.seed}:{index}:{shape}")[:8], 16)
            spec = ScenarioSpec(scenario_id, shape, seed,
                                corpus.width, corpus.depth,
                                corpus.fanout)
            scenarios.append(scenario_entry(spec))
            index += 1
    body: dict[str, Any] = {
        "format": CORPUS_FORMAT,
        "seed": corpus.seed,
        "parameters": {
            "width": corpus.width,
            "depth": corpus.depth,
            "fanout": corpus.fanout,
            "per_shape": corpus.per_shape,
            "shapes": list(corpus.shapes),
        },
        "scenarios": scenarios,
    }
    body["digest"] = manifest_digest(body)
    return body


def write_corpus(corpus: CorpusSpec,
                 directory: str | pathlib.Path) -> pathlib.Path:
    """Generate and persist ``corpus.json``; returns its path."""
    root = pathlib.Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    target = root / CORPUS_FILE
    target.write_text(
        json.dumps(generate_corpus(corpus), indent=1, sort_keys=True)
        + "\n", encoding="utf-8")
    return target


def load_corpus(path: str | pathlib.Path) -> dict[str, Any]:
    """Read and integrity-check a manifest (file or corpus directory).

    Undecodable JSON or a manifest of the wrong shape raises a
    :class:`ReproError` naming the file.
    """
    candidate = pathlib.Path(path)
    if candidate.is_dir():
        candidate = candidate / CORPUS_FILE
    if not candidate.exists():
        raise ReproError(f"{candidate} is not a corpus "
                         f"(missing {CORPUS_FILE})")
    try:
        return _checked_manifest(candidate)
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise ReproError(
            f"{candidate}: malformed corpus manifest "
            f"({type(error).__name__}: {error})") from error


def _checked_manifest(candidate: pathlib.Path) -> dict[str, Any]:
    manifest = json.loads(candidate.read_text(encoding="utf-8"))
    if manifest.get("format") != CORPUS_FORMAT:
        raise ReproError(
            f"unsupported corpus format {manifest.get('format')!r} "
            f"(this build reads {CORPUS_FORMAT!r})")
    if manifest.get("digest") != manifest_digest(manifest):
        raise ReproError(
            f"{candidate}: manifest digest mismatch — the file was "
            "edited or truncated; regenerate with 'repro corpus "
            "generate'")
    return manifest


def spec_from_entry(entry: dict[str, Any]) -> ScenarioSpec:
    """Rebuild the generator recipe from one manifest entry."""
    return ScenarioSpec(
        scenario_id=entry["scenario_id"],
        shape=entry["shape"],
        seed=int(entry["seed"]),
        width=int(entry["width"]),
        depth=int(entry["depth"]),
        fanout=int(entry["fanout"]),
    )


def scenario_specs(manifest: dict[str, Any]) -> tuple[ScenarioSpec, ...]:
    return tuple(spec_from_entry(entry)
                 for entry in manifest.get("scenarios", ()))
