"""CI gate: the resilience layer must recover from a scripted crash.

Drives the real ``repro run`` CLI over a saved Fig. 6 parallel flow
with a seeded fault plan (two transient Extractor crashes):

1. with ``--retries 3`` the run must recover — exit 0, all branches
   produced, and the ledger must record exactly the two retries;
2. a second same-seed run in a fresh project must record byte-identical
   per-tool retry counts (the chaos drill is deterministic);
3. the recovered history must be content-identical (same entity types,
   same data digests) to a run that never saw a fault — atomicity means
   faults leave no residue;
4. with retries disabled the same plan must be fatal — exit 1.

A fan-out step then runs the same plan over one Extractor invocation
with three calls (one per bound layout): it must recover under
``--retries 3`` and leave a history content-identical to a fault-free
run.  A lane retries each call before the next; a worker retries the
failed calls of one round trip together.

Every step runs twice: on the thread pool (``--executor parallel
--machines 4``) and across the process boundary (``--executor
procpool --workers 2``), and the procpool leg must record per-tool
retry telemetry equal to the parallel leg's, for the Fig. 6 flow and
for the fan-out.  Everything runs through
the CLI (``repro run <dir> fig6 --executor ... --fault-plan ...``), so
the flags, the ledger wiring, and the exit-code contract are all under
test, not just the library layer.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).parent))

BRANCHES = 4
#: Calls of the fan-out step's one Extractor invocation.
FAN_OUT = 3
SEED = 7
INJECTED_CRASHES = 2

#: (leg name, executor flags): the same drill in threads and processes.
LEGS = (
    ("parallel", ("--executor", "parallel", "--machines", str(BRANCHES))),
    ("procpool", ("--executor", "procpool", "--workers", "2")),
)


def build_project(root: pathlib.Path, flow_name: str = "fig6") -> None:
    """A saved environment with a bound flow in its catalog: ``fig6``,
    BRANCHES disjoint extraction branches, or ``fanout``, one Extractor
    invocation over FAN_OUT layouts."""
    from repro import DesignEnvironment
    from repro.persistence import save_environment
    from repro.schema import standard as S
    from repro.schema.standard import odyssey_schema
    from repro.tools import (install_standard_tools, standard_library,
                             stdcell_layout)
    from repro.tools.logic import LogicSpec

    env = DesignEnvironment(odyssey_schema(), user="chaos")
    tools = install_standard_tools(env)
    library = standard_library()
    equations = ["y = a & b", "y = a | b", "y = ~(a & b)",
                 "y = (a & ~b) | (~a & b)"]
    count = BRANCHES if flow_name == "fig6" else FAN_OUT
    layouts = []
    for index, equation in enumerate(equations[:count]):
        spec = LogicSpec.from_equations(f"f{index}", equation)
        layouts.append(env.install_data(
            S.STD_CELL_LAYOUT,
            stdcell_layout(spec, library, {"seed": index}),
            name=f"variant-{index}").instance_id)
    flow = env.new_flow(flow_name)
    # fig6: one branch per layout; fanout: one branch over them all
    for bound in ([[layout] for layout in layouts]
                  if flow_name == "fig6" else [layouts]):
        netlist_node = flow.place(S.EXTRACTED_NETLIST)
        tool_node = flow.graph.add_node(S.EXTRACTOR)
        layout_node = flow.graph.add_node(S.LAYOUT)
        layout_node.bind(*bound)
        tool_node.bind(tools[S.EXTRACTOR].instance_id)
        flow.connect(netlist_node, tool_node)
        flow.connect(netlist_node, layout_node, role="layout")
    env.save_flow(flow_name, flow)
    save_environment(env, root)


def write_plan(path: pathlib.Path) -> None:
    from repro.execution import FaultPlan, FaultSpec
    from repro.schema import standard as S

    FaultPlan([FaultSpec(S.EXTRACTOR, index + 1)
               for index in range(INJECTED_CRASHES)],
              seed=SEED).save(path)


def run_cli(directory: pathlib.Path, executor: tuple[str, ...],
            *extra: str, flow_name: str = "fig6") -> int:
    from repro.cli import main as repro_main

    return repro_main(["run", str(directory), flow_name, *executor,
                       *extra])


def retry_counts(directory: pathlib.Path) -> str:
    """Canonical JSON of the last run's recorded retry telemetry."""
    from repro.obs import RunLedger

    record = RunLedger(directory / "ledger.jsonl").records()[-1]
    per_tool = {tool: stats.retries
                for tool, stats in sorted(record.tools.items())}
    return json.dumps({"retries": record.retries,
                       "timeouts": record.timeouts,
                       "failures": record.failures,
                       "per_tool": per_tool}, sort_keys=True)


def history_signature(directory: pathlib.Path) -> list[tuple[str, str]]:
    """(entity type, content digest) multiset of the whole history."""
    from repro.persistence import load_environment

    env = load_environment(directory)
    return sorted((inst.entity_type, inst.data_ref)
                  for inst in env.db.instances())


def netlist_count(directory: pathlib.Path) -> int:
    from repro.persistence import load_environment
    from repro.schema import standard as S

    env = load_environment(directory)
    return len(env.db.browse(S.EXTRACTED_NETLIST))


def drill(root: pathlib.Path, plan: pathlib.Path,
          executor: tuple[str, ...], failures: list[str]) -> str:
    """The four steps on one executor; returns the recorded telemetry."""
    # 1. crash-then-recover: retries enabled must succeed
    recovered = root / "recovered"
    build_project(recovered)
    code = run_cli(recovered, executor, "--retries", "3",
                   "--fault-plan", str(plan))
    print(f"with --retries 3: exit {code}")
    if code != 0:
        failures.append(f"retries enabled must recover, exited {code}")
    counts = retry_counts(recovered)
    print(f"  ledger telemetry: {counts}")
    if json.loads(counts)["retries"] != INJECTED_CRASHES:
        failures.append(
            f"ledger must record {INJECTED_CRASHES} retries, "
            f"got {counts}")
    if netlist_count(recovered) != BRANCHES:
        failures.append(
            f"all {BRANCHES} branches must produce, got "
            f"{netlist_count(recovered)}")

    # 2. determinism: a same-seed re-run records identical telemetry
    replay = root / "replay"
    build_project(replay)
    code = run_cli(replay, executor, "--retries", "3",
                   "--fault-plan", str(plan))
    if code != 0:
        failures.append(f"same-seed replay exited {code}")
    if retry_counts(replay) != counts:
        failures.append(
            "same-seed runs recorded different retry counts:\n"
            f"  {counts}\n  {retry_counts(replay)}")
    else:
        print("  same-seed replay: retry telemetry byte-identical")

    # 3. atomicity: recovered history == never-faulted history
    pristine = root / "pristine"
    build_project(pristine)
    code = run_cli(pristine, executor)
    if code != 0:
        failures.append(f"fault-free run exited {code}")
    if history_signature(recovered) != history_signature(pristine):
        failures.append("recovered history differs from a fault-free run")
    else:
        print("  recovered history content-identical to fault-free run")

    # 4. the same plan without a retry budget must be fatal
    fragile = root / "fragile"
    build_project(fragile)
    code = run_cli(fragile, executor, "--fault-plan", str(plan))
    print(f"without retries: exit {code}")
    if code != 1:
        failures.append(
            f"retries disabled must fail with exit 1, got {code}")
    return counts


def fan_out(root: pathlib.Path, plan: pathlib.Path,
            executor: tuple[str, ...], failures: list[str]) -> str:
    """The fan-out step; returns the recorded telemetry."""
    recovered, pristine = root / "fanout", root / "fanout-pristine"
    build_project(recovered, "fanout")
    code = run_cli(recovered, executor, "--retries", "3",
                   "--fault-plan", str(plan), flow_name="fanout")
    counts = retry_counts(recovered)
    print(f"fan-out with --retries 3: exit {code}, ledger {counts}")
    if code != 0 or json.loads(counts)["retries"] != INJECTED_CRASHES:
        failures.append(f"fan-out must recover with {INJECTED_CRASHES} "
                        f"retries, exited {code} with {counts}")
    if netlist_count(recovered) != FAN_OUT:
        failures.append(f"fan-out must produce {FAN_OUT} netlists, got "
                        f"{netlist_count(recovered)}")
    build_project(pristine, "fanout")
    if run_cli(pristine, executor, flow_name="fanout") != 0:
        failures.append("fault-free fan-out run failed")
    if history_signature(recovered) != history_signature(pristine):
        failures.append("recovered fan-out history differs from a "
                        "fault-free run")
    else:
        print("  recovered fan-out history content-identical")
    return counts


def main() -> int:
    failures: list[str] = []
    telemetry: dict[str, list[str]] = {}
    with tempfile.TemporaryDirectory() as scratch:
        root = pathlib.Path(scratch)
        plan = root / "plan.json"
        write_plan(plan)
        for name, executor in LEGS:
            print(f"[{name}]")
            leg_failures: list[str] = []
            (root / name).mkdir()
            telemetry[name] = [
                drill(root / name, plan, executor, leg_failures),
                fan_out(root / name, plan, executor, leg_failures)]
            failures += [f"{name}: {failure}" for failure in leg_failures]
    for step, parallel, procpool in zip(("fig6", "fan-out"),
                                        telemetry["parallel"],
                                        telemetry["procpool"]):
        if procpool != parallel:
            failures.append(
                f"{step}: procpool recorded other retry telemetry than "
                f"parallel:\n  {parallel}\n  {procpool}")
        else:
            print(f"{step}: procpool retry telemetry equals the "
                  "parallel leg's")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("chaos smoke check passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
