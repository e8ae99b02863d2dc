"""Deterministic fault injection at the encapsulation boundary.

The resilience layer (:mod:`repro.execution.resilience`) is only
trustworthy if it can be exercised against *scripted* failure: a
:class:`FaultPlan` describes exactly which invocation of which tool
type misbehaves and how, so a test, a benchmark, or a ``repro run
--fault-plan`` chaos drill replays the same failure schedule every
time.  Faults fire at the same boundary the retry/timeout machinery
guards — on every preset the coordinator draws each attempt's fault
with :meth:`FaultPlan.next_fault`, and the attempt's call body fires it
with :func:`run_with_fault` *inside* the resilient call, so an injected
crash is retried, an injected hang trips the watchdog, and an injected
corruption is rejected before anything reaches the history database.

Fault kinds:

``crash``
    Raise before the tool runs.  ``transient=True`` (the default)
    raises :class:`~repro.errors.TransientToolError` — the retryable
    kind; ``transient=False`` raises a permanent
    :class:`~repro.errors.ToolError`.
``hang``
    Sleep ``delay`` seconds (default: effectively forever) before
    running the tool — the watchdog abandons the call and classifies
    it as a timeout.
``slowdown``
    Sleep ``delay`` seconds, then run the tool normally.  The run
    succeeds but its duration statistics shift — health-check fodder.
``corrupt``
    Run the tool, then replace its output with an unserializable
    sentinel.  The framework's own contract checks reject it
    (permanent failure), and atomicity demands nothing was recorded.

Counting is per *tool type*, 1-based, across the whole plan lifetime
and all threads: ``invocation=3`` fires on the third time any executor
lane invokes that tool type after the last :meth:`FaultPlan.reset`.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from ..errors import ExecutionError, ToolError, TransientToolError

CRASH = "crash"
HANG = "hang"
SLOWDOWN = "slowdown"
CORRUPT = "corrupt"

FAULT_KINDS = (CRASH, HANG, SLOWDOWN, CORRUPT)

#: Default hang duration: long enough that any sane watchdog budget
#: expires first, short enough that an accidental no-timeout run does
#: eventually come back instead of wedging a test session forever.
DEFAULT_HANG_DELAY = 3600.0


class CorruptData:
    """Unserializable, un-dict-like sentinel a ``corrupt`` fault returns.

    It is neither a mapping (so executors reject it as a tool result)
    nor JSON-serializable (so no codec will persist it) — whichever
    check fires first, nothing lands in the history database.
    """

    def __repr__(self) -> str:
        return "<corrupt tool output>"


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: *kind* on the Nth call of *tool_type*."""

    tool_type: str
    #: 1-based index into the per-tool-type invocation counter.
    invocation: int
    kind: str = CRASH
    #: Sleep length for ``hang``/``slowdown`` faults (seconds).
    delay: float = DEFAULT_HANG_DELAY
    #: ``crash`` only: transient (retryable) vs permanent.
    transient: bool = True
    message: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ExecutionError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {', '.join(FAULT_KINDS)}")
        if self.invocation < 1:
            raise ExecutionError(
                f"fault invocation index is 1-based, got "
                f"{self.invocation}")

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"tool_type": self.tool_type,
                                "invocation": self.invocation,
                                "kind": self.kind}
        if self.kind in (HANG, SLOWDOWN):
            data["delay"] = self.delay
        if self.kind == CRASH and not self.transient:
            data["transient"] = False
        if self.message:
            data["message"] = self.message
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultSpec":
        if not isinstance(data, dict):
            raise ExecutionError(
                f"fault spec must be an object, got {type(data).__name__}")
        try:
            tool_type = data["tool_type"]
            invocation = int(data["invocation"])
        except KeyError as missing:
            raise ExecutionError(
                f"fault spec is missing required key {missing}") from None
        return cls(tool_type=tool_type, invocation=invocation,
                   kind=data.get("kind", CRASH),
                   delay=float(data.get("delay", DEFAULT_HANG_DELAY)),
                   transient=bool(data.get("transient", True)),
                   message=str(data.get("message", "")))


class FaultPlan:
    """A seeded, replayable schedule of tool faults.

    The plan keeps one thread-safe counter per tool type; executors
    draw every call attempt's fault through :meth:`next_fault`, so the
    Nth invocation is the Nth *globally*, whichever thread or worker
    runs it.  ``reset()`` rewinds the counters so the same plan object
    can script a second identical run.
    """

    def __init__(self, faults: list[FaultSpec] | None = None,
                 seed: int = 0,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.faults = list(faults or ())
        self.seed = seed
        self.sleep = sleep
        self._counts: dict[str, int] = {}
        self._fired: list[tuple[str, int, str]] = []
        self._lock = threading.Lock()
        by_slot: set[tuple[str, int]] = set()
        for fault in self.faults:
            slot = (fault.tool_type, fault.invocation)
            if slot in by_slot:
                raise ExecutionError(
                    f"duplicate fault for {fault.tool_type!r} "
                    f"invocation {fault.invocation}")
            by_slot.add(slot)

    # -- scripting --------------------------------------------------------
    @classmethod
    def seeded(cls, seed: int, tool_types: list[str], *,
               faults: int = 2, max_invocation: int = 3,
               kinds: tuple[str, ...] = (CRASH,),
               sleep: Callable[[float], None] = time.sleep
               ) -> "FaultPlan":
        """Draw a random (but seed-reproducible) plan.

        Only transient kinds make sense for generated chaos (the point
        is recovery), so ``kinds`` defaults to crashes.
        """
        rng = random.Random(seed)
        slots: set[tuple[str, int]] = set()
        specs: list[FaultSpec] = []
        for _ in range(faults):
            for _ in range(64):  # resample on slot collision
                slot = (rng.choice(tool_types),
                        rng.randint(1, max_invocation))
                if slot not in slots:
                    break
            else:
                continue
            slots.add(slot)
            specs.append(FaultSpec(
                tool_type=slot[0], invocation=slot[1],
                kind=rng.choice(kinds), delay=0.0))
        return cls(specs, seed=seed, sleep=sleep)

    def reset(self) -> None:
        """Rewind the invocation counters for an identical re-run."""
        with self._lock:
            self._counts.clear()
            self._fired.clear()

    @property
    def fired(self) -> tuple[tuple[str, int, str], ...]:
        """(tool type, invocation index, kind) for every fault fired."""
        with self._lock:
            return tuple(self._fired)

    # -- the injection boundary -------------------------------------------
    def next_fault(self, tool_type: str) -> FaultSpec | None:
        """Advance the counter for ``tool_type`` and return the fault
        scripted for this (1-based) invocation, if any.

        Counting is the plan's single source of truth: every call
        consumes one invocation slot whether or not a fault fires.
        Crash faults come back with their message resolved, so the
        returned spec is self-contained — a coordinator can pickle it
        into a worker process and fire it far from the plan object.
        """
        with self._lock:
            count = self._counts.get(tool_type, 0) + 1
            self._counts[tool_type] = count
            fault = next(
                (f for f in self.faults
                 if f.tool_type == tool_type and f.invocation == count),
                None)
            if fault is None:
                return None
            self._fired.append((tool_type, count, fault.kind))
        if fault.kind == CRASH and not fault.message:
            fault = replace(fault, message=(
                f"injected "
                f"{'transient' if fault.transient else 'permanent'}"
                f" crash: {tool_type} invocation {count}"))
        return fault

    def apply(self, tool_type: str, call: Callable[[], Any]) -> Any:
        """Draw and fire at once: run ``call`` under what this plan
        scripts for the current (1-based) invocation of ``tool_type``."""
        return run_with_fault(self.next_fault(tool_type), call,
                              sleep=self.sleep)

    # -- persistence ------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed,
                "faults": [fault.to_dict() for fault in self.faults]}

    @classmethod
    def from_dict(cls, data: dict[str, Any], *,
                  sleep: Callable[[float], None] = time.sleep
                  ) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ExecutionError(
                f"fault plan must be an object, got "
                f"{type(data).__name__}")
        specs = [FaultSpec.from_dict(item)
                 for item in data.get("faults", ())]
        return cls(specs, seed=int(data.get("seed", 0)), sleep=sleep)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path, *,
             sleep: Callable[[float], None] = time.sleep) -> "FaultPlan":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise ExecutionError(
                f"cannot load fault plan from {path}: {error}") from error
        return cls.from_dict(data, sleep=sleep)

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:
        kinds = ", ".join(
            f"{f.tool_type}#{f.invocation}:{f.kind}" for f in self.faults)
        return f"FaultPlan(seed={self.seed}, [{kinds}])"


def run_with_fault(fault: FaultSpec | None, call: Callable[[], Any], *,
                   sleep: Callable[[float], None] = time.sleep) -> Any:
    """Run ``call`` under an already-drawn fault spec (or none).

    The plan side (:meth:`FaultPlan.next_fault`) and the firing side
    are split so a coordinator draws the fault where the counters live
    and the call body fires it wherever the attempt runs — inside a
    worker process a hang then really blocks the worker and the
    watchdog kills a real process, not a thread-local stand-in.
    """
    if fault is None:
        return call()
    if fault.kind == CRASH:
        message = fault.message or (
            f"injected "
            f"{'transient' if fault.transient else 'permanent'}"
            f" crash: {fault.tool_type}")
        error_type = (TransientToolError if fault.transient
                      else ToolError)
        raise error_type(message)
    if fault.kind in (HANG, SLOWDOWN):
        sleep(fault.delay)
        return call()
    # CORRUPT: run the tool, then mangle what it produced.
    call()
    return CorruptData()


__all__ = [
    "CORRUPT",
    "CRASH",
    "CorruptData",
    "DEFAULT_HANG_DELAY",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "HANG",
    "SLOWDOWN",
    "run_with_fault",
]
