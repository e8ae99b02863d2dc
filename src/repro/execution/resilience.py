"""Resilient execution: retries, timeouts, and the circuit breaker.

The paper's history database is only a faithful derivation record if
invocations fail *atomically* and the framework survives misbehaving
tools.  This module is the policy layer the executors consult around
every encapsulation invocation:

* **bounded retries** for *transient* failures, with deterministic
  clock-driven exponential backoff plus seeded jitter (same seed, same
  delays — reproducible down to the sleep schedule);
* **per-invocation timeouts** enforced by a watchdog thread: the tool
  call runs on a disposable daemon thread and is abandoned when it
  exceeds its budget, surfacing as a (transient, retryable)
  :class:`~repro.errors.InvocationTimeoutError`.  The abandoned call
  can never write history — recording happens on the executor thread
  only after a successful return;
* **transient-vs-permanent classification**: framework errors (schema,
  encapsulation contract, history rejection) are permanent and never
  retried; timeouts, :class:`~repro.errors.TransientToolError` and
  OS-flavoured flakiness are transient;
* a **circuit breaker** that quarantines a tool type after K
  consecutive invocation failures, so a dead license server fails fast
  instead of burning a retry budget per task — paired with *graceful
  degradation*: with ``degrade=True`` the executors record failed
  invocations in the :class:`~repro.execution.executor.ExecutionReport`
  and keep executing everything that does not depend on them, instead
  of aborting the whole flow.

The policy owns the one retry loop, :meth:`ResiliencePolicy.drive`:
every executor preset drives its tool calls through it, whether an
attempt runs inline on a lane or as a worker round trip, and
:meth:`ResiliencePolicy.run` is its single-call use.  The policy object
is shared: a coordinator hands the same instance to every lane, so
breaker state is global to the run, guarded by one lock.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..errors import (ExecutionError, InvocationTimeoutError,
                      ToolQuarantinedError, TransientToolError)

# -- failure classifications -------------------------------------------------
TRANSIENT = "transient"      #: retry may succeed (flaky tool, timeout)
PERMANENT = "permanent"      #: retrying is pointless (bad code/data)
QUARANTINED = "quarantined"  #: failed fast: the breaker was open
UPSTREAM = "upstream"        #: inputs missing because a supplier failed

CLASSIFICATIONS = (TRANSIENT, PERMANENT, QUARANTINED, UPSTREAM)

#: Exception types retried by default.  ``TransientToolError`` is the
#: explicit marker (fault injection and encapsulations raise it);
#: timeouts and OS-level flakiness are transient by nature.  Framework
#: contract violations (``ExecutionError`` and friends) stay permanent.
DEFAULT_TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (
    TransientToolError,
    TimeoutError,
    ConnectionError,
    InterruptedError,
)

#: Consecutive invocation failures before a tool type is quarantined.
DEFAULT_QUARANTINE_AFTER = 3


@dataclass(frozen=True)
class RetryRule:
    """Retry/timeout tuning for one tool type (or the default)."""

    retries: int = 0
    #: Per-invocation watchdog budget in seconds (``None``: unlimited).
    timeout: float | None = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    #: Jitter fraction: delays stretch by up to ``jitter`` of themselves.
    jitter: float = 0.1


@dataclass
class CallStats:
    """What one resilient call cost: attempts, retries, timeouts."""

    attempts: int = 1
    retries: int = 0
    timeouts: int = 0
    delays: tuple[float, ...] = ()


@dataclass(eq=False)
class Call:
    """One call :meth:`ResiliencePolicy.drive` takes to its outcome: a
    successful attempt's ``value``, or the final ``error``."""

    tool_type: str
    stats: CallStats = field(default_factory=lambda: CallStats(attempts=0))
    value: Any = None
    error: BaseException | None = None


@dataclass(frozen=True)
class InvocationFailure:
    """One invocation that failed for good (post-retry), as recorded in
    a degraded :class:`~repro.execution.executor.ExecutionReport`."""

    outputs: tuple[str, ...]
    tool_type: str | None
    error: str
    error_class: str
    classification: str
    attempts: int = 1
    retries: int = 0
    timeouts: int = 0
    machine: str = "local"

    def render(self) -> str:
        tool = self.tool_type or "<compose>"
        return (f"{','.join(self.outputs)}: [{self.classification}] "
                f"{tool} failed after {self.attempts} attempt(s): "
                f"{self.error_class}: {self.error}")


def annotate_error(error: BaseException, *,
                   tool_type: str | None = None,
                   classification: str | None = None,
                   attempts: int | None = None,
                   retries: int | None = None,
                   timeouts: int | None = None) -> BaseException:
    """Stamp resilience metadata onto an exception (best effort).

    The ledger and the degraded-report path read these back with
    ``getattr``; exceptions that reject attributes are left alone.
    """
    stamps = {"repro_tool_type": tool_type,
              "repro_classification": classification,
              "repro_attempts": attempts,
              "repro_retries": retries,
              "repro_timeouts": timeouts}
    for name, value in stamps.items():
        if value is None:
            continue
        try:
            setattr(error, name, value)
        except (AttributeError, TypeError):  # __slots__ or frozen
            break
    return error


class CircuitBreaker:
    """Per-tool-type consecutive-failure counter with a quarantine set.

    ``record_failure`` / ``record_success`` are called once per
    *invocation outcome* (after retries), never per attempt, so one
    flaky-but-recovering tool does not trip the breaker.  Thread-safe:
    parallel lanes share one breaker through the shared policy.
    """

    def __init__(self,
                 threshold: int = DEFAULT_QUARANTINE_AFTER) -> None:
        if threshold < 1:
            raise ExecutionError(
                f"quarantine threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self._consecutive: dict[str, int] = {}
        self._open: set[str] = set()
        self._lock = threading.Lock()

    def record_failure(self, tool_type: str) -> bool:
        """Count one failed invocation; True when this opens the breaker."""
        with self._lock:
            count = self._consecutive.get(tool_type, 0) + 1
            self._consecutive[tool_type] = count
            if count >= self.threshold and tool_type not in self._open:
                self._open.add(tool_type)
                return True
            return False

    def record_success(self, tool_type: str) -> None:
        with self._lock:
            self._consecutive[tool_type] = 0

    def is_open(self, tool_type: str) -> bool:
        with self._lock:
            return tool_type in self._open

    def failures(self, tool_type: str) -> int:
        with self._lock:
            return self._consecutive.get(tool_type, 0)

    def open_types(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._open))

    def reset(self, tool_type: str | None = None) -> None:
        """Lift the quarantine (one tool type, or everything)."""
        with self._lock:
            if tool_type is None:
                self._consecutive.clear()
                self._open.clear()
            else:
                self._consecutive.pop(tool_type, None)
                self._open.discard(tool_type)


def call_with_timeout(call: Callable[[], Any],
                      timeout: float | None) -> Any:
    """Run ``call`` under a watchdog; abandon it past ``timeout``.

    The call runs on a disposable daemon thread.  On timeout the thread
    is left behind (Python cannot safely kill it) and an
    :class:`~repro.errors.InvocationTimeoutError` is raised on the
    caller; whatever the abandoned call eventually returns is dropped,
    so it can never reach the history database — recording only happens
    on the executor thread after a successful, in-budget return.
    """
    if timeout is None or timeout <= 0:
        return call()
    outcome: list[Any] = []
    failure: list[BaseException] = []
    finished = threading.Event()

    def runner() -> None:
        try:
            outcome.append(call())
        except BaseException as error:  # delivered to the caller below
            failure.append(error)
        finally:
            finished.set()

    watchdog = threading.Thread(target=runner, daemon=True,
                                name="repro-tool-watchdog")
    watchdog.start()
    if not finished.wait(timeout):
        raise InvocationTimeoutError(
            f"invocation exceeded its {timeout:g}s watchdog budget and "
            "was abandoned")
    if failure:
        raise failure[0]
    return outcome[0]


def watchdog_budget(policy: "ResiliencePolicy | None",
                    tool_type: str) -> float | None:
    """The watchdog budget of one call of ``tool_type`` in seconds, or
    None when it runs unwatched (no policy, or no positive timeout)."""
    if policy is None:
        return None
    timeout = policy.rule_for(tool_type).timeout
    return timeout if timeout is not None and timeout > 0 else None


class ResiliencePolicy:
    """Retry/timeout/quarantine policy the executors consult per call.

    One instance is intended to be shared across an environment's
    executors (and across the lanes of one coordinated run): the
    circuit-breaker state and the seeded backoff schedule live here.

    ``sleep`` is injectable so tests (and the deterministic chaos
    harness) can run the full backoff schedule without wall-clock
    delays while still observing the exact planned delays.
    """

    def __init__(self, *, retries: int = 0,
                 timeout: float | None = None,
                 quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
                 degrade: bool = False,
                 seed: int = 0,
                 backoff_base: float = 0.05,
                 backoff_factor: float = 2.0,
                 backoff_max: float = 2.0,
                 jitter: float = 0.1,
                 transient_errors: tuple[type[BaseException], ...] =
                 DEFAULT_TRANSIENT_ERRORS,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if retries < 0:
            raise ExecutionError(f"retries must be >= 0, got {retries}")
        self._default = RetryRule(
            retries=retries, timeout=timeout, backoff_base=backoff_base,
            backoff_factor=backoff_factor, backoff_max=backoff_max,
            jitter=jitter)
        self._rules: dict[str, RetryRule] = {}
        self.breaker = CircuitBreaker(quarantine_after)
        #: Record failures into the report and keep going instead of
        #: aborting the flow (partial ``ExecutionReport``s).
        self.degrade = degrade
        self.seed = seed
        self.transient_errors = tuple(transient_errors)
        self.sleep = sleep

    # -- configuration ---------------------------------------------------
    def override(self, tool_type: str, *, retries: int | None = None,
                 timeout: float | None = None,
                 backoff_base: float | None = None,
                 backoff_factor: float | None = None,
                 backoff_max: float | None = None,
                 jitter: float | None = None) -> "ResiliencePolicy":
        """Tune one tool type; unspecified knobs keep the defaults."""
        updates = {name: value for name, value in (
            ("retries", retries), ("timeout", timeout),
            ("backoff_base", backoff_base),
            ("backoff_factor", backoff_factor),
            ("backoff_max", backoff_max), ("jitter", jitter))
            if value is not None}
        self._rules[tool_type] = replace(
            self._rules.get(tool_type, self._default), **updates)
        return self

    def rule_for(self, tool_type: str) -> RetryRule:
        return self._rules.get(tool_type, self._default)

    def quarantined(self) -> tuple[str, ...]:
        return self.breaker.open_types()

    # -- classification and backoff --------------------------------------
    def classify(self, error: BaseException) -> str:
        """``transient`` / ``permanent`` / ``quarantined`` for one error."""
        if isinstance(error, ToolQuarantinedError):
            return QUARANTINED
        if isinstance(error, self.transient_errors):
            return TRANSIENT
        return PERMANENT

    def backoff_delay(self, tool_type: str, attempt: int) -> float:
        """Planned delay before retrying ``attempt`` (1-based).

        Exponential base schedule capped at ``backoff_max``, stretched
        by deterministic jitter derived from ``(seed, tool type,
        attempt)`` — the same run replays the same sleep schedule.
        """
        rule = self.rule_for(tool_type)
        base = min(rule.backoff_max,
                   rule.backoff_base * rule.backoff_factor
                   ** max(0, attempt - 1))
        token = f"{self.seed}\x1f{tool_type}\x1f{attempt}".encode("utf-8")
        digest = hashlib.sha256(token).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return base * (1.0 + rule.jitter * fraction)

    # -- the retry loop --------------------------------------------------
    def quarantined_error(self, tool_type: str) -> BaseException | None:
        """The fail-fast error for a quarantined tool type, else None.

        A refused call makes no attempt and the breaker does not count
        it as another failure.
        """
        if not self.breaker.is_open(tool_type):
            return None
        return annotate_error(
            ToolQuarantinedError(
                f"tool type {tool_type!r} is quarantined after "
                f"{self.breaker.failures(tool_type)} consecutive "
                "failures"),
            tool_type=tool_type, classification=QUARANTINED,
            attempts=0, retries=0, timeouts=0)

    def settle(self, tool_type: str, error: BaseException,
               stats: CallStats, *,
               on_retry: Callable[[int, BaseException, float, str], None]
               | None = None,
               on_quarantine: Callable[[int], None] | None = None
               ) -> BaseException | None:
        """The retry decision after one failed attempt.

        Returns None when the call should be tried again — the retry is
        counted in ``stats`` and the backoff already slept.  Otherwise
        the breaker counts the failure and the error comes back
        annotated (see :func:`annotate_error`), final.
        """
        classification = self.classify(error)
        if classification != TRANSIENT \
                or stats.attempts > self.rule_for(tool_type).retries:
            if self.breaker.record_failure(tool_type) \
                    and on_quarantine is not None:
                on_quarantine(self.breaker.failures(tool_type))
            return annotate_error(
                error, tool_type=tool_type,
                classification=classification,
                attempts=stats.attempts, retries=stats.retries,
                timeouts=stats.timeouts)
        delay = self.backoff_delay(tool_type, stats.attempts)
        stats.retries += 1
        stats.delays += (delay,)
        if on_retry is not None:
            on_retry(stats.attempts, error, delay, classification)
        self.sleep(delay)
        return None

    def drive(self, trip: list[Call],
              attempt: Callable[[list[Call]], list[BaseException | None]],
              hooks: Callable[[Call], tuple[Any, Any, Any]]) -> None:
        """Drive a trip of calls until each succeeds or fails for good.

        ``attempt`` runs the calls once, together, stores each success's
        ``value`` and returns each call's error (None on success).  A
        failed call is retried at once with its failed trip-mates, or
        keeps its final, annotated ``error``.  A quarantined tool type
        is refused before every attempt, and after a trip-mate opened
        the quarantine, uncounted.  ``hooks(call)`` gives its
        ``(on_retry, on_timeout, on_quarantine)``, each possibly None.
        """
        while trip:
            for call in trip:
                call.error = self.quarantined_error(call.tool_type)
            trip = [call for call in trip if call.error is None]
            if not trip:
                return
            for call in trip:
                call.stats.attempts += 1
            retry = []
            for call, error in zip(trip, attempt(trip)):
                if error is None:
                    self.breaker.record_success(call.tool_type)
                    continue
                on_retry, on_timeout, on_quarantine = hooks(call)
                if isinstance(error, InvocationTimeoutError):
                    call.stats.timeouts += 1
                    if on_timeout is not None:
                        on_timeout(call.stats.attempts,
                                   watchdog_budget(self, call.tool_type)
                                   or 0.0)
                call.error = self.quarantined_error(call.tool_type) \
                    or self.settle(call.tool_type, error, call.stats,
                                   on_retry=on_retry,
                                   on_quarantine=on_quarantine)
                if call.error is None:
                    retry.append(call)
            trip = retry

    def run(self, tool_type: str, call: Callable[[], Any], *,
            on_retry: Callable[[int, BaseException, float, str], None]
            | None = None,
            on_timeout: Callable[[int, float], None] | None = None,
            on_quarantine: Callable[[int], None] | None = None
            ) -> tuple[Any, CallStats]:
        """Execute ``call`` under this policy: :meth:`drive` for one
        call, each attempt under the tool type's watchdog budget.

        Returns ``(result, CallStats)`` on success.  On final failure
        the original exception is re-raised, annotated with the tool
        type, attempt count and classification (see
        :func:`annotate_error`), after the breaker counted the failure.
        """
        one = Call(tool_type)

        def attempt(trip: list[Call]) -> list[BaseException | None]:
            try:
                one.value = call_with_timeout(
                    call, watchdog_budget(self, tool_type))
            except BaseException as error:
                return [error]
            return [None]

        self.drive([one], attempt,
                   lambda _: (on_retry, on_timeout, on_quarantine))
        if one.error is not None:
            raise one.error
        return one.value, one.stats

    def __repr__(self) -> str:
        rule = self._default
        return (f"ResiliencePolicy(retries={rule.retries}, "
                f"timeout={rule.timeout}, "
                f"quarantine_after={self.breaker.threshold}, "
                f"degrade={self.degrade}, seed={self.seed})")


def failure_entry(error: BaseException, *,
                  outputs: tuple[str, ...],
                  tool_type: str | None,
                  machine: str = "local",
                  policy: "ResiliencePolicy | None" = None,
                  classification: str | None = None
                  ) -> InvocationFailure:
    """Distill an exception (annotated or not) into a report entry."""
    if classification is None:
        classification = getattr(error, "repro_classification", None)
    if classification is None:
        classification = (policy.classify(error) if policy is not None
                          else PERMANENT)
    return InvocationFailure(
        outputs=tuple(outputs),
        tool_type=tool_type,
        error=str(error),
        error_class=type(error).__name__,
        classification=classification,
        attempts=int(getattr(error, "repro_attempts", 1) or 1),
        retries=int(getattr(error, "repro_retries", 0) or 0),
        timeouts=int(getattr(error, "repro_timeouts", 0) or 0),
        machine=machine)


__all__ = [
    "CLASSIFICATIONS",
    "Call",
    "CallStats",
    "CircuitBreaker",
    "DEFAULT_QUARANTINE_AFTER",
    "DEFAULT_TRANSIENT_ERRORS",
    "InvocationFailure",
    "PERMANENT",
    "QUARANTINED",
    "ResiliencePolicy",
    "RetryRule",
    "TRANSIENT",
    "UPSTREAM",
    "annotate_error",
    "call_with_timeout",
    "failure_entry",
    "watchdog_budget",
]
