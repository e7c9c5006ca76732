"""Retry, circuit-breaking and fleet-health primitives.

The service layer (PRs 4–7) talks HTTP between a coordinator and a
daemon fleet, and until this module every call was single-shot: one
reset socket retired a daemon, one queue-full 503 failed a lease.
This module is the shared vocabulary the client and the distributed
coordinator use to tell *transient* faults (retry, with backoff)
from *persistent* ones (trip the breaker, demote the daemon):

:class:`RetryPolicy`
    Exponential backoff with deterministic seeded jitter and a total
    sleep budget.  Determinism matters here the same way it does in
    the mapping flow — a chaos run with a fixed seed replays the
    exact same retry schedule, so failures reproduce.

:class:`CircuitBreaker`
    Per-remote closed/open/half-open breaker.  Persistent failure
    opens it (calls fail fast instead of burning timeouts); after
    ``reset_timeout`` one probe call is let through (half-open) and
    its outcome closes or re-opens the circuit.

:func:`call_with_retries`
    The loop that binds them: classify the exception, honour
    ``Retry-After``, sleep the policy's delay, count every step in
    the module metrics.

Counters live in a module-level :class:`MetricsRegistry` (rendered by
:func:`render_metrics` in the same Prometheus text format the daemon
serves on ``/metrics``) because retries, breaker trips and probation
happen on the *coordinator* side — there is no daemon registry to
carry them.  ``tools/scenarios.py fleet`` / ``chaos`` and the chaos
battery assert recovery through these counters.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.obs import trace
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "BreakerOpen",
    "CircuitBreaker",
    "RetryPolicy",
    "call_with_retries",
    "render_metrics",
    "reset_metrics",
    "resilience_counter",
]


# ---------------------------------------------------------------- #
# Module metrics — coordinator-side counters in exposition format.  #
# ---------------------------------------------------------------- #

_METRICS_LOCK = threading.Lock()
_REGISTRY: MetricsRegistry | None = None
_COUNTERS: dict[str, object] = {}

#: ``name -> (help text, label names)`` for every counter this layer
#: maintains.  Families are declared up front so a rendered document
#: always carries the full catalogue (a scrape before the first
#: retry still shows ``fpfa_client_retries_total`` at 0 series).
_COUNTER_FAMILIES: dict[str, tuple[str, tuple[str, ...]]] = {
    "fpfa_client_retries":
        ("Client calls retried after a retryable failure.",
         ("reason",)),
    "fpfa_retry_give_ups":
        ("Calls abandoned after exhausting attempts or budget.", ()),
    "fpfa_breaker_transitions":
        ("Circuit breaker state transitions.", ("to",)),
    "fpfa_breaker_fast_fails":
        ("Calls rejected without I/O because the breaker was open.",
         ()),
    "fpfa_probation_demotions":
        ("Daemons demoted from the lease pool to probation.", ()),
    "fpfa_probation_probes":
        ("Health probes sent to daemons on probation.", ()),
    "fpfa_probation_readmissions":
        ("Daemons readmitted to the lease pool after probation.", ()),
    "fpfa_dashboard_reconnects":
        ("Dashboard event-stream reconnect attempts.", ()),
}


def _registry() -> MetricsRegistry:
    global _REGISTRY
    with _METRICS_LOCK:
        if _REGISTRY is None:
            _REGISTRY = MetricsRegistry()
            _COUNTERS.clear()
            for name, (help_text, labels) in \
                    _COUNTER_FAMILIES.items():
                _COUNTERS[name] = _REGISTRY.counter(
                    name, help_text, labels)
        return _REGISTRY


def resilience_counter(name: str):
    """The module-level counter *name* (see ``_COUNTER_FAMILIES``)."""
    _registry()
    return _COUNTERS[name]


def render_metrics() -> str:
    """The resilience counters as a Prometheus text document."""
    return _registry().render()


def reset_metrics() -> None:
    """Drop all counters (tests isolate themselves with this)."""
    global _REGISTRY
    with _METRICS_LOCK:
        _REGISTRY = None
        _COUNTERS.clear()


# ---------------------------------------------------------------- #
# Retry policy.                                                     #
# ---------------------------------------------------------------- #

@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and a budget.

    ``attempts`` bounds the *total* number of tries (the first call
    included), ``budget`` the total seconds the policy may spend
    sleeping between them — whichever runs out first ends the retry
    loop.  The jitter fraction spreads a fleet's retries so a
    restarted daemon is not hit by every lane on the same tick, yet
    stays deterministic: the displacement is a pure function of
    ``(seed, key, attempt)``, so one seed replays one schedule.
    """

    attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 5.0
    multiplier: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    budget: float | None = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1:
            raise ValueError("multiplier must be >= 1")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter is a fraction in [0, 1]")

    def _jitter_fraction(self, key: str, attempt: int) -> float:
        digest = hashlib.sha256(
            f"{self.seed}|{key}|{attempt}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2 ** 64

    def delay(self, attempt: int, *, key: str = "",
              retry_after: float | None = None) -> float:
        """Seconds to sleep before retry *attempt* (1-based).

        The backoff curve is ``base * multiplier**(attempt-1)``
        capped at ``max_delay``, displaced by the deterministic
        jitter (symmetric, at most ``jitter`` of the backoff).  A
        server-provided *retry_after* acts as a floor — the daemon
        knows its queue better than our curve does.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        backoff = min(self.max_delay,
                      self.base_delay * self.multiplier
                      ** (attempt - 1))
        spread = self._jitter_fraction(key, attempt) * 2 - 1
        delay = max(0.0, backoff * (1 + self.jitter * spread))
        if retry_after is not None:
            delay = max(delay, float(retry_after))
        return delay

    def schedule(self, *, key: str = "") -> list[float]:
        """Every inter-attempt delay this policy would sleep for
        *key* (budget ignored) — handy for tests and docs."""
        return [self.delay(attempt, key=key)
                for attempt in range(1, self.attempts)]


# ---------------------------------------------------------------- #
# Circuit breaker.                                                  #
# ---------------------------------------------------------------- #

class BreakerOpen(RuntimeError):
    """Fast-fail: the breaker is open, no call was attempted."""


class CircuitBreaker:
    """Per-remote closed/open/half-open circuit.

    * **closed** — calls flow; ``failure_threshold`` consecutive
      failures open the circuit.
    * **open** — :meth:`allow` answers False (callers fail fast)
      until ``reset_timeout`` seconds pass on the injected clock.
    * **half-open** — exactly one probe call is let through; its
      success closes the circuit, its failure re-opens it (and the
      reset clock starts over).

    Thread-safe; the clock is injectable so the state machine tests
    run on a fake clock instead of real sleeps.
    """

    def __init__(self, *, failure_threshold: int = 3,
                 reset_timeout: float = 5.0,
                 clock: Callable[[], float] = time.monotonic,
                 label: str = "") -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout < 0:
            raise ValueError("reset_timeout must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.label = label
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            self._tick()
            return self._state

    def _transition(self, to: str) -> None:
        if self._state == to:
            return
        self._state = to
        resilience_counter("fpfa_breaker_transitions").inc(to=to)
        if trace.enabled():
            trace.event("resilience.breaker", label=self.label,
                        to=to)

    def _tick(self) -> None:
        if self._state == "open" and \
                self._clock() - self._opened_at >= self.reset_timeout:
            self._transition("half-open")
            self._probing = False

    def allow(self) -> bool:
        """May a call proceed right now?  In half-open state only
        the first caller gets True (the probe); the rest fail fast
        until the probe reports back."""
        with self._lock:
            self._tick()
            if self._state == "closed":
                return True
            if self._state == "half-open" and not self._probing:
                self._probing = True
                return True
            resilience_counter("fpfa_breaker_fast_fails").inc()
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._probing = False
            self._transition("closed")

    def record_failure(self) -> None:
        with self._lock:
            self._tick()
            self._probing = False
            if self._state == "half-open":
                self._opened_at = self._clock()
                self._transition("open")
                return
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._opened_at = self._clock()
                self._transition("open")


# ---------------------------------------------------------------- #
# The retry loop.                                                   #
# ---------------------------------------------------------------- #

def _default_classify(error: BaseException) \
        -> tuple[bool, float | None]:
    """``error -> (retryable, retry_after)`` without importing the
    client (which imports us): anything carrying a ``retryable``
    attribute speaks for itself (:class:`ServiceError` does); plain
    socket/OS errors are transient by definition."""
    retryable = getattr(error, "retryable", None)
    if retryable is not None:
        return bool(retryable), getattr(error, "retry_after", None)
    return isinstance(error, (OSError, ConnectionError)), None


def call_with_retries(fn: Callable[[], object], *,
                      policy: RetryPolicy,
                      breaker: CircuitBreaker | None = None,
                      key: str = "",
                      classify: Callable[[BaseException],
                                         tuple[bool, float | None]]
                      = _default_classify,
                      sleep: Callable[[float], None] = time.sleep,
                      ) -> object:
    """Run *fn* under *policy* (and *breaker*, when given).

    Retryable failures sleep the policy's delay and try again until
    attempts or the sleep budget run out; non-retryable failures and
    the final retryable one re-raise unchanged.  An open breaker
    raises :class:`BreakerOpen` without calling *fn* at all.
    """
    slept = 0.0
    last_error: BaseException | None = None
    for attempt in range(1, policy.attempts + 1):
        if breaker is not None and not breaker.allow():
            raise BreakerOpen(
                f"circuit open for {breaker.label or key or 'remote'}")
        try:
            result = fn()
        except BaseException as error:
            retryable, retry_after = classify(error)
            if breaker is not None:
                breaker.record_failure()
            if not retryable:
                raise
            last_error = error
            if attempt >= policy.attempts:
                break
            delay = policy.delay(attempt, key=key,
                                 retry_after=retry_after)
            if policy.budget is not None and \
                    slept + delay > policy.budget:
                break
            resilience_counter("fpfa_client_retries").inc(
                reason=type(error).__name__)
            trace.count("resilience.retries")
            if trace.enabled():
                trace.event("resilience.retry", key=key,
                            attempt=attempt, delay=round(delay, 4),
                            error=str(error))
            if delay > 0:
                sleep(delay)
                if trace.enabled():
                    # Backoff stalls get their own span so critical-
                    # path analysis can attribute retry wait time.
                    trace.record_span("retry.backoff", delay,
                                      key=key, attempt=attempt)
            slept += delay
            continue
        if breaker is not None:
            breaker.record_success()
        return result
    resilience_counter("fpfa_retry_give_ups").inc()
    if trace.enabled():
        trace.event("resilience.give_up", key=key,
                    attempts=policy.attempts,
                    error=str(last_error))
    assert last_error is not None
    raise last_error
