"""Flow execution: encapsulations, sequential and parallel executors.

Automatic task sequencing from schema dependencies (section 3.3), the
fan-out semantics of the instance browser (section 4.1), the parallel
disjoint-branch execution of Fig. 6, and the resilience layer (retry /
timeout / quarantine policies plus deterministic fault injection) that
keeps the history database a faithful derivation record when tools
misbehave.
"""

from .cache import (CACHE_OFF, CACHE_POLICIES, CACHE_READWRITE,
                    CACHE_REUSE, CacheHit, CacheStats, DerivationCache,
                    normalize_policy)
from .context import DesignEnvironment
from .encapsulation import (EncapsulationRegistry, ToolContext,
                            ToolEncapsulation, default_composition,
                            encapsulation, fingerprint_callable)
from .executor import (CachedInvocation, ExecutionReport, FlowExecutor,
                       InvocationResult)
from .faults import (CORRUPT, CRASH, FAULT_KINDS, HANG, SLOWDOWN,
                     CorruptData, FaultPlan, FaultSpec, run_with_fault)
from .parallel import (BranchPlan, Machine, MachinePool,
                       ParallelFlowExecutor, plan_branches)
from .procpool import (EnvelopeOutcome, InvocationEnvelope,
                       ProcessFlowExecutor)
from .resilience import (CLASSIFICATIONS, PERMANENT, QUARANTINED,
                         TRANSIENT, UPSTREAM, CallStats, CircuitBreaker,
                         InvocationFailure, ResiliencePolicy, RetryRule,
                         annotate_error, call_with_timeout,
                         failure_entry)
from .scheduler import (DurationModel, Schedule, ScheduleEntry,
                        ScheduledFlowExecutor, plan_schedule)
from .shared_memo import (MEMO_SCHEMA_VERSION, MemoEntry,
                          SharedDerivationMemo)

__all__ = [
    "BranchPlan",
    "CACHE_OFF",
    "CACHE_POLICIES",
    "CACHE_READWRITE",
    "CACHE_REUSE",
    "CLASSIFICATIONS",
    "CORRUPT",
    "CRASH",
    "CacheHit",
    "CacheStats",
    "CachedInvocation",
    "CallStats",
    "CircuitBreaker",
    "CorruptData",
    "DerivationCache",
    "DesignEnvironment",
    "DurationModel",
    "EncapsulationRegistry",
    "EnvelopeOutcome",
    "ExecutionReport",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FlowExecutor",
    "HANG",
    "InvocationEnvelope",
    "InvocationFailure",
    "InvocationResult",
    "MEMO_SCHEMA_VERSION",
    "Machine",
    "MachinePool",
    "MemoEntry",
    "PERMANENT",
    "ParallelFlowExecutor",
    "ProcessFlowExecutor",
    "QUARANTINED",
    "ResiliencePolicy",
    "RetryRule",
    "SLOWDOWN",
    "Schedule",
    "ScheduleEntry",
    "ScheduledFlowExecutor",
    "SharedDerivationMemo",
    "TRANSIENT",
    "ToolContext",
    "ToolEncapsulation",
    "UPSTREAM",
    "annotate_error",
    "call_with_timeout",
    "default_composition",
    "encapsulation",
    "failure_entry",
    "fingerprint_callable",
    "normalize_policy",
    "plan_branches",
    "plan_schedule",
    "run_with_fault",
]
