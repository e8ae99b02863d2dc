"""The design environment: schema + history + encapsulations, wired up.

:class:`DesignEnvironment` is the reproduction's Odyssey: one object a
designer (or an example script) needs.  It owns the task schema, the
history database, the encapsulation registry, the flow catalog, and hands
out flows via the four design approaches of section 3.4.
"""

from __future__ import annotations

import pathlib
from typing import Any, Callable, Sequence

from ..errors import SchemaError
from ..core.approaches import (data_based, goal_based, plan_based,
                               tool_based)
from ..core.flow import DynamicFlow
from ..core.taskgraph import TaskGraph
from ..history.consistency import (consistency_report, is_stale,
                                   refresh_plan, stale_inputs)
from ..history.database import HistoryDatabase
from ..history.datastore import CodecRegistry
from ..history.instance import EntityInstance
from ..history.store import HistoryStore
from ..obs import DECOMPOSE_SPAN, EventBus, RunLedger, Tracer
from ..schema.catalog import (DataTypeCatalog, EntityCatalog, FlowCatalog,
                              ToolCatalog)
from ..schema.schema import TaskSchema
from .cache import CACHE_OFF, DerivationCache, normalize_policy
from .encapsulation import (EncapsulationRegistry, ToolEncapsulation)
from .executor import ExecutionReport, FlowExecutor
from .faults import FaultPlan
from .parallel import MachinePool, ParallelFlowExecutor
from .procpool import ProcessFlowExecutor
from .resilience import ResiliencePolicy
from .scheduler import DurationModel, ScheduledFlowExecutor
from .shared_memo import SharedDerivationMemo


class DesignEnvironment:
    """Everything needed to design with dynamically defined flows."""

    def __init__(self, schema: TaskSchema, *, user: str = "designer",
                 codecs: CodecRegistry | None = None,
                 clock: Callable[[], float] | None = None,
                 bus: EventBus | None = None,
                 store: HistoryStore | None = None) -> None:
        schema.validate()
        self.schema = schema
        self.user = user
        # One bus per environment: the database and every executor this
        # environment hands out emit onto it.  It stays a no-op until a
        # sink subscribes (env.bus.subscribe(...)).
        self.bus = bus if bus is not None else (
            EventBus(clock=clock) if clock is not None else EventBus())
        # Likewise one tracer: subscribe a span sink
        # (env.tracer.subscribe(JSONLSink(...))) and every executor this
        # environment hands out records hierarchical spans.
        self.tracer = Tracer()
        self.db = HistoryDatabase(schema, codecs=codecs, clock=clock,
                                  bus=self.bus, store=store)
        self.registry = EncapsulationRegistry(schema)
        self.flow_catalog: FlowCatalog[DynamicFlow] = FlowCatalog()
        self.entity_catalog = EntityCatalog(schema)
        self.tool_catalog = ToolCatalog(schema)
        self.data_type_catalog = DataTypeCatalog(schema)
        self._cache: DerivationCache | None = None
        # Longitudinal run history: attached by persistence for saved
        # environments (attach_ledger); in-memory environments record
        # nothing unless a ledger is attached explicitly.
        self.ledger: RunLedger | None = None
        # Default resilience policy / fault plan handed to every
        # executor this environment creates (both None: tool failures
        # abort the flow, exactly as without the resilience layer).
        self.resilience: ResiliencePolicy | None = None
        self.faults: FaultPlan | None = None
        # Sampling profiler handed to every executor this environment
        # creates (None: no profiling overhead anywhere).  The CLI's
        # ``repro run --profile`` sets and starts one for the run.
        self.profiler = None
        # Cross-process shared derivation memo, the cache's saved
        # index: set by enable_shared_memo (persistence does so for
        # saved environments) and attached to the cache on first use.
        self._shared_memo_path: pathlib.Path | None = None

    def attach_ledger(self, path: str | pathlib.Path) -> RunLedger:
        """Record every executed run into a ledger at ``path``.

        Every executor this environment hands out afterwards appends
        one :class:`~repro.obs.ledger.RunRecord` per ``execute()``
        call; ``repro health`` and ``repro ledger`` read them back.
        """
        self.ledger = RunLedger(path)
        return self.ledger

    @property
    def cache(self) -> DerivationCache:
        """The environment's derivation cache (created lazily).

        Results of ``readwrite`` runs by *any* executor of this
        environment become reusable; executors only consult it when
        asked to (``cache=``).
        """
        if self._cache is None:
            self._cache = DerivationCache(self.db, self.registry)
        if self._shared_memo_path is not None \
                and self._cache.memo is None:
            self._cache.attach_shared_memo(self._shared_memo_path)
        return self._cache

    def enable_shared_memo(
            self, path: str | pathlib.Path) -> SharedDerivationMemo:
        """Share remembered derivations across processes and runs.

        Points the environment's cache at an append-only memo log at
        ``path`` (created on first write), carrying over the runs the
        cache remembers.  Concurrent runs publish their cache stores
        there, once per ``execute()``, and absorb each other's entries
        on lookup; a :class:`ProcessFlowExecutor` does so from its
        coordinator, since its worker processes never touch the cache.
        """
        cache = self.cache  # absorbs the memo it is attached to now
        self._shared_memo_path = pathlib.Path(path)
        return cache.attach_shared_memo(self._shared_memo_path)

    # ------------------------------------------------------------------
    # installation (source entities enter from outside the flows)
    # ------------------------------------------------------------------
    def install_tool(self, tool_type: str,
                     encapsulation: ToolEncapsulation | None = None, *,
                     data: Any = None, name: str = "",
                     comment: str = "") -> EntityInstance:
        """Register a tool instance (optionally with its encapsulation)."""
        if encapsulation is not None:
            self.registry.register(tool_type, encapsulation)
        descriptor = data if data is not None else {"tool": tool_type,
                                                    "name": name}
        return self.db.install(tool_type, descriptor, user=self.user,
                               name=name or tool_type, comment=comment)

    def install_data(self, entity_type: str, data: Any, *, name: str = "",
                     comment: str = "",
                     annotations: dict[str, str] | None = None
                     ) -> EntityInstance:
        """Register design data entering from outside any flow."""
        return self.db.install(entity_type, data, user=self.user,
                               name=name, comment=comment,
                               annotations=annotations)

    # ------------------------------------------------------------------
    # the four design approaches (section 3.4)
    # ------------------------------------------------------------------
    def goal_flow(self, goal_type: str, name: str = "goal-flow"):
        """Goal-based approach: start from the entity to be produced."""
        return goal_based(self.schema, goal_type, name)

    def tool_flow(self, tool_type: str, name: str = "tool-flow",
                  tool_instance: EntityInstance | str | None = None):
        """Tool-based approach: start from a tool (type or instance)."""
        return tool_based(self.schema, tool_type, name,
                          tool_instance=tool_instance)

    def data_flow(self, instance: EntityInstance | str,
                  name: str = "data-flow"):
        """Data-based approach: start from an existing design object."""
        if isinstance(instance, str):
            instance = self.db.get(instance)
        return data_based(self.schema, instance, name)

    def plan_flow(self, flow_name: str) -> DynamicFlow:
        """Plan-based approach: pick a predefined flow from the catalog."""
        return plan_based(self.flow_catalog, flow_name)

    def new_flow(self, name: str = "flow") -> DynamicFlow:
        """An empty flow (place nodes from the catalogs by hand)."""
        return DynamicFlow(self.schema, name)

    def save_flow(self, name: str, flow: DynamicFlow,
                  description: str = "") -> None:
        """Publish a flow into the catalog for plan-based reuse."""
        self.flow_catalog.register_flow(name, flow.copy(name),
                                        description=description)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _executor_args(self, cache: str | None,
                       resilience: ResiliencePolicy | None,
                       faults: FaultPlan | None) -> dict[str, Any]:
        """Keyword arguments every executor preset takes from here.

        A cache policy of ``off`` stays inert — the cache is not even
        constructed.
        """
        policy = normalize_policy(cache)
        return {"user": self.user, "bus": self.bus,
                "cache": self.cache if policy != CACHE_OFF else None,
                "cache_policy": policy, "tracer": self.tracer,
                "ledger": self.ledger,
                "resilience": resilience if resilience is not None
                else self.resilience,
                "faults": faults if faults is not None else self.faults,
                "profiler": self.profiler}

    def executor(self, machine: str = "local", *,
                 cache: str | None = None,
                 resilience: ResiliencePolicy | None = None,
                 faults: FaultPlan | None = None) -> FlowExecutor:
        return FlowExecutor(
            self.db, self.registry, machine=machine,
            **self._executor_args(cache, resilience, faults))

    def parallel_executor(self, machines: int = 2,
                          pool: MachinePool | None = None, *,
                          cache: str | None = None,
                          resilience: ResiliencePolicy | None = None,
                          faults: FaultPlan | None = None
                          ) -> ParallelFlowExecutor:
        return ParallelFlowExecutor(
            self.db, self.registry, pool=pool, machines=machines,
            **self._executor_args(cache, resilience, faults))

    def scheduled_executor(self, machines: int = 2,
                           pool: MachinePool | None = None,
                           durations: DurationModel | None = None, *,
                           cache: str | None = None,
                           resilience: ResiliencePolicy | None = None,
                           faults: FaultPlan | None = None
                           ) -> ScheduledFlowExecutor:
        return ScheduledFlowExecutor(
            self.db, self.registry, pool=pool, machines=machines,
            durations=durations,
            **self._executor_args(cache, resilience, faults))

    def process_executor(self, workers: int = 2,
                         durations: DurationModel | None = None, *,
                         cache: str | None = None,
                         resilience: ResiliencePolicy | None = None,
                         faults: FaultPlan | None = None
                         ) -> ProcessFlowExecutor:
        """Real multi-core execution on ``workers`` forked processes."""
        return ProcessFlowExecutor(
            self.db, self.registry, workers=workers, durations=durations,
            **self._executor_args(cache, resilience, faults))

    def run(self, flow: DynamicFlow | TaskGraph,
            targets: Sequence[str] | None = None, *,
            force: bool = False,
            cache: str | None = None) -> ExecutionReport:
        """Execute a flow with a fresh sequential executor.

        ``cache`` selects the re-execution policy: ``"off"`` (default),
        ``"reuse"`` (read-only coalescing of remembered results) or
        ``"readwrite"`` (also index new results eagerly).
        """
        return self.executor(cache=cache).execute(
            flow, targets=targets, force=force)

    # ------------------------------------------------------------------
    # composed entities (section 3.1)
    # ------------------------------------------------------------------
    def decompose(self, instance: EntityInstance | str
                  ) -> dict[str, EntityInstance]:
        """Split a composed instance into its component instances.

        Section 3.1: composed entities carry implicit decomposition
        functions.  The instance-level pointers live in the derivation
        record (the paper's footnote: composite data usually just points
        at the parts), so decomposition is a history lookup; composites
        installed from outside fall back to the registered data-level
        decomposition function.
        """
        if isinstance(instance, str):
            instance = self.db.get(instance)
        entity = self.schema.entity(instance.entity_type)
        if not entity.composed:
            raise SchemaError(
                f"{instance.instance_id}: {instance.entity_type!r} is "
                "not a composed entity")
        with self.tracer.span(
                f"decompose:{instance.entity_type}", DECOMPOSE_SPAN,
                attributes={"instance": instance.instance_id,
                            "entity_type": instance.entity_type}):
            if instance.derivation is not None:
                return {role: self.db.get(input_id)
                        for role, input_id in instance.derivation.inputs}
            # externally installed composite: decompose the data itself
            # and surface the parts as fresh installed instances
            decompose = self.registry.decomposition(instance.entity_type)
            parts = decompose(self.db.data(instance))
            construction = self.schema.construction(instance.entity_type)
            out: dict[str, EntityInstance] = {}
            for role, data in parts.items():
                target = construction.input_role(role).target
                out[role] = self.install_data(
                    target, data,
                    name=f"{instance.name or instance.instance_id}"
                         f".{role}",
                    annotations={"decomposed-from":
                                 instance.instance_id})
            return out

    # ------------------------------------------------------------------
    # consistency maintenance (section 3.3)
    # ------------------------------------------------------------------
    def is_stale(self, instance: EntityInstance | str) -> bool:
        return is_stale(self.db, self._id(instance))

    def stale_inputs(self, instance: EntityInstance | str):
        return stale_inputs(self.db, self._id(instance))

    def refresh_plan(self, instance: EntityInstance | str) -> TaskGraph:
        return refresh_plan(self.db, self._id(instance))

    def retrace(self, instance: EntityInstance | str) -> ExecutionReport:
        """Automatically re-derive a stale instance from newest versions."""
        plan = self.refresh_plan(instance)
        return self.executor().execute(plan)

    def consistency_report(self, entity_type: str | None = None):
        return consistency_report(self.db, entity_type)

    @staticmethod
    def _id(instance: EntityInstance | str) -> str:
        return instance if isinstance(instance, str) \
            else instance.instance_id

    def __repr__(self) -> str:
        return (f"DesignEnvironment(schema={self.schema.name!r}, "
                f"user={self.user!r}, instances={len(self.db)})")
