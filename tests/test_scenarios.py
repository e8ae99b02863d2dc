"""Tests for the seeded scenario-corpus generator and its exports.

Generator determinism (byte-identical manifests, tamper detection,
shape structure), executed-history agreement with the manifest's
offline simulation, both export contracts (governance cg.v1 round-trip
and triples count-consistency) and the ``repro corpus`` CLI surface.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.persistence import load_environment
from repro.scenarios import (MAIN_FLOW, SHAPES, CorpusSpec,
                             ScenarioSpec, expected_signature,
                             generate_corpus, governance_fingerprint,
                             governance_records, history_signature,
                             load_corpus, materialize_governance,
                             materialize_scenario,
                             register_corpus_encapsulations,
                             render_jsonl, scenario_nodes,
                             scenario_specs, signature_digest,
                             simulate_payloads, triples_records,
                             validate_governance, validate_triples,
                             write_corpus)
from repro.schema.standard import fig2_schema


def spec_of(shape: str, *, seed: int = 11, width: int = 2,
            depth: int = 2, fanout: int = 3) -> ScenarioSpec:
    return ScenarioSpec(f"t-{shape}", shape, seed, width, depth,
                        fanout)


class TestGeneratorDeterminism:
    def test_same_seed_writes_identical_bytes(self, tmp_path):
        corpus = CorpusSpec(seed=42, width=3, depth=2, fanout=3)
        first = write_corpus(corpus, tmp_path / "a")
        second = write_corpus(corpus, tmp_path / "b")
        assert first.read_bytes() == second.read_bytes()

    def test_different_seeds_diverge(self):
        assert generate_corpus(CorpusSpec(seed=1))["digest"] != \
            generate_corpus(CorpusSpec(seed=2))["digest"]

    def test_manifest_lists_all_five_shapes(self):
        manifest = generate_corpus(CorpusSpec(seed=0))
        assert [e["shape"] for e in manifest["scenarios"]] == \
            list(SHAPES)
        for entry in manifest["scenarios"]:
            expected = entry["expected"]
            assert expected["instances"] == len(expected["data_refs"])
            assert expected["runs"] == sum(
                1 for node in entry["nodes"] if node["tool"])

    def test_tampered_manifest_rejected(self, tmp_path):
        path = write_corpus(CorpusSpec(seed=5), tmp_path)
        body = json.loads(path.read_text())
        body["scenarios"][0]["expected"]["instances"] += 1
        path.write_text(json.dumps(body))
        with pytest.raises(ReproError, match="digest mismatch"):
            load_corpus(tmp_path)

    def test_missing_and_wrong_format_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="not a corpus"):
            load_corpus(tmp_path)
        (tmp_path / "corpus.json").write_text(
            json.dumps({"format": "corpus.v9"}))
        with pytest.raises(ReproError, match="unsupported"):
            load_corpus(tmp_path)

    def test_shape_validation(self):
        with pytest.raises(ReproError, match="unknown scenario shape"):
            scenario_nodes(ScenarioSpec("x", "ring", 0, 2, 2, 2))
        with pytest.raises(ReproError, match="fanout >= 2"):
            scenario_nodes(ScenarioSpec("x", "fork_join", 0, 2, 2, 1))
        with pytest.raises(ReproError, match="unknown scenario shape"):
            generate_corpus(CorpusSpec(shapes=("ring",)))


class TestShapeStructure:
    def test_independent_width_scales_branches(self):
        nodes = scenario_nodes(spec_of("independent", width=4))
        assert len(nodes) == 8
        assert sum(1 for n in nodes if n.tool_type is None) == 4

    def test_chain_depth_scales_length(self):
        nodes = scenario_nodes(spec_of("chain", depth=5))
        assert [n.entity_type for n in nodes] == \
            ["Src0"] + [f"Stage{i}" for i in range(1, 6)]

    def test_diamond_joins_both_branches(self):
        nodes = scenario_nodes(spec_of("diamond", depth=2))
        join = nodes[-1]
        assert join.entity_type == "Join"
        assert set(join.inputs) == {"A2", "B2"}

    def test_fork_join_fanout(self):
        nodes = scenario_nodes(spec_of("fork_join", fanout=4))
        assert nodes[-1].inputs == tuple(f"Fork{i}" for i in range(4))

    def test_pipeline_shares_stage_tools_across_lanes(self):
        nodes = scenario_nodes(spec_of("pipeline", width=3, depth=2))
        stage_tools = {n.tool_type for n in nodes
                       if n.tool_type is not None}
        assert stage_tools == {"Stage1", "Stage2"}
        assert sum(1 for n in nodes if n.tool_type == "Stage1") == 3

    def test_simulation_is_topological_and_complete(self):
        spec = spec_of("diamond")
        payloads = simulate_payloads(spec)
        assert set(payloads) == \
            {n.entity_type for n in scenario_nodes(spec)}
        join = payloads["Join"]
        assert join["kind"] == "derived"
        assert set(join["inputs"]) == {"A2", "B2"}


class TestMaterializedRuns:
    # fanout 11 makes node order ("Fork2" before "Fork10") differ from
    # the sorted role order the executors pass inputs in
    @pytest.mark.parametrize("spec", [
        *(pytest.param(spec_of(shape), id=shape) for shape in SHAPES),
        pytest.param(spec_of("fork_join", fanout=11),
                     id="fork_join-fanout11")])
    def test_run_matches_offline_simulation(self, spec):
        env = materialize_scenario(spec)
        report = env.run(env.flow_catalog.select(MAIN_FLOW))
        assert not report.failures
        signature = history_signature(env)
        assert signature == expected_signature(spec)
        refs = dict(signature)
        for node in scenario_nodes(spec):
            assert node.entity_type in refs

    def test_executed_digest_equals_manifest_expectation(self):
        manifest = generate_corpus(CorpusSpec(seed=13))
        for spec, entry in zip(scenario_specs(manifest),
                               manifest["scenarios"]):
            env = materialize_scenario(spec)
            report = env.run(env.flow_catalog.select(MAIN_FLOW))
            assert report.runs == entry["expected"]["runs"]
            signature = history_signature(env)
            assert len(signature) == entry["expected"]["instances"]
            assert signature_digest(signature) == \
                entry["expected"]["history_digest"]

    def test_corpus_registration_noop_on_standard_schemas(self):
        from repro.execution.context import DesignEnvironment
        env = DesignEnvironment(fig2_schema(), user="t")
        assert register_corpus_encapsulations(env) == ()

    def test_registration_is_idempotent(self):
        env = materialize_scenario(spec_of("chain"))
        assert register_corpus_encapsulations(env) == ()


class TestGovernanceExport:
    def run_scenario(self, shape="diamond"):
        env = materialize_scenario(spec_of(shape))
        env.run(env.flow_catalog.select(MAIN_FLOW))
        return env

    def test_round_trip_validates_node_and_edge_for_edge(self):
        env = self.run_scenario()
        records = governance_records(env)
        lines = render_jsonl(records).splitlines()
        graph = materialize_governance(lines)
        assert validate_governance(graph, env) == []
        # header + one Task per data node + one Artifact per instance
        data_nodes = [n for n in scenario_nodes(spec_of("diamond"))]
        assert len(graph.nodes_of_type("Task")) == len(data_nodes)
        assert len(graph.nodes_of_type("Artifact")) == \
            len(list(env.db.instances()))
        assert graph.header["schema_version"] == "cg.v1"
        assert "clock_fast" in graph.header
        assert "clock_slow" in graph.header

    def test_depends_on_mirrors_flow_data_edges(self):
        env = self.run_scenario("chain")
        graph = materialize_governance(governance_records(env))
        deps = graph.edges_of_type("depends_on")
        # a chain of depth 2: Stage1<-Src0, Stage2<-Stage1
        assert len(deps) == 2

    def test_validator_flags_missing_task_and_artifact(self):
        env = self.run_scenario()
        records = governance_records(env)
        dropped = [r for r in records
                   if not (r.get("record") == "node"
                           and r.get("node_type") in ("Task",
                                                      "Artifact"))]
        problems = validate_governance(
            materialize_governance(dropped), env)
        assert any("has no Task node" in p for p in problems)
        assert any("has no Artifact node" in p for p in problems)

    def test_validator_flags_digest_mismatch(self):
        env = self.run_scenario()
        records = governance_records(env)
        for record in records:
            if record.get("node_type") == "Artifact":
                record["props"]["digest"] = "0" * 64
        problems = validate_governance(
            materialize_governance(records), env)
        assert any("digest mismatch" in p for p in problems)

    def test_fingerprint_stable_across_fresh_runs(self):
        first = governance_fingerprint(
            governance_records(self.run_scenario()))
        second = governance_fingerprint(
            governance_records(self.run_scenario()))
        assert first == second

    def test_runs_get_run_and_gate_nodes(self):
        env = self.run_scenario()
        records = env.ledger.records() if env.ledger is not None \
            else ()

        class FakeRun:
            run_id = "deadbeef"
            trace_id = ""
            flow = MAIN_FLOW
            executor = "sequential"
            cache_policy = "off"
            runs = 5
            created = 6
            errors = 0
            timestamp = 12.0
        lines = governance_records(env, [FakeRun()])
        graph = materialize_governance(lines)
        assert "run:deadbeef" in graph.nodes
        assert "gate:deadbeef" in graph.nodes
        assert graph.props("gate:deadbeef")["status"] == "pass"
        assert ("run:deadbeef", "gate:deadbeef") in \
            graph.edges_of_type("evaluated_by")
        assert validate_governance(graph, env, [FakeRun()]) == []


class TestTriplesExport:
    def test_parseable_and_count_consistent(self):
        env = materialize_scenario(spec_of("fork_join"))
        env.run(env.flow_catalog.select(MAIN_FLOW))
        lines = render_jsonl(triples_records(env)).splitlines()
        assert validate_triples(lines, env) == []
        parsed = [json.loads(line) for line in lines]
        assert all(set(t) == {"s", "p", "o"} for t in parsed)

    def test_byte_identical_across_fresh_runs(self):
        texts = []
        for _ in range(2):
            env = materialize_scenario(spec_of("pipeline"))
            env.run(env.flow_catalog.select(MAIN_FLOW))
            texts.append(render_jsonl(triples_records(env)))
        assert texts[0] == texts[1]

    def test_validator_flags_missing_and_malformed(self):
        env = materialize_scenario(spec_of("chain"))
        env.run(env.flow_catalog.select(MAIN_FLOW))
        records = triples_records(env)
        short = [r for r in records if r["p"] != "repro:digest"]
        problems = validate_triples(short, env)
        assert any("repro:digest" in p for p in problems)
        assert any("not an s/p/o triple" in p
                   for p in validate_triples(
                       [{"subject": "x"}], env))


class TestCorpusCLI:
    def test_generate_run_export_round_trip(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        assert main(["corpus", "generate", str(corpus_dir),
                     "--seed", "3", "--shape", "diamond",
                     "--shape", "fork_join"]) == 0
        manifest = load_corpus(corpus_dir)
        assert len(manifest["scenarios"]) == 2
        assert main(["corpus", "run", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert "all digests match the manifest" in out
        scenario_dir = corpus_dir / \
            manifest["scenarios"][0]["scenario_id"]
        env = load_environment(scenario_dir)
        assert len(list(env.db.instances())) == \
            manifest["scenarios"][0]["expected"]["instances"]
        gov = tmp_path / "gov.jsonl"
        assert main(["corpus", "export", str(scenario_dir),
                     "-o", str(gov)]) == 0
        graph = materialize_governance(
            gov.read_text().splitlines())
        assert graph.nodes_of_type("Task")
        assert main(["corpus", "export", str(scenario_dir),
                     "--format", "triples"]) == 0
        triples_out = capsys.readouterr().out
        assert '"rdf:type"' in triples_out

    def test_generate_is_byte_identical_across_invocations(
            self, tmp_path):
        for name in ("one", "two"):
            assert main(["corpus", "generate",
                         str(tmp_path / name), "--seed", "9"]) == 0
        assert (tmp_path / "one" / "corpus.json").read_bytes() == \
            (tmp_path / "two" / "corpus.json").read_bytes()

    def test_rerun_is_idempotent(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        main(["corpus", "generate", str(corpus_dir), "--seed", "4",
              "--shape", "chain"])
        assert main(["corpus", "run", str(corpus_dir)]) == 0
        # second run re-materializes from scratch: digests still match
        assert main(["corpus", "run", str(corpus_dir)]) == 0
        assert "all digests match" in capsys.readouterr().out

    def test_unknown_scenario_filter_rejected(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        main(["corpus", "generate", str(corpus_dir), "--shape",
              "chain"])
        assert main(["corpus", "run", str(corpus_dir),
                     "--scenario", "nope"]) == 2
        assert "no such scenario" in capsys.readouterr().err


#: a broken manifest: name -> the text written as ``corpus.json``
BROKEN_MANIFESTS = {
    "truncated": lambda text: text[:100],
    "a list": lambda text: "[]",
}


@pytest.mark.parametrize("broken", sorted(BROKEN_MANIFESTS))
def test_a_broken_manifest_is_one_error_naming_it(tmp_path, capsys,
                                                  broken):
    corpus_dir = tmp_path / "corpus"
    assert main(["corpus", "generate", str(corpus_dir), "--seed", "1"]) == 0
    manifest = corpus_dir / "corpus.json"
    manifest.write_text(BROKEN_MANIFESTS[broken](manifest.read_text()))
    capsys.readouterr()
    assert main(["corpus", "run", str(corpus_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(
        f"error: {manifest}: malformed corpus manifest (")
    with pytest.raises(ReproError, match="malformed corpus manifest"):
        load_corpus(corpus_dir)
