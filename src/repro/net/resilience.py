"""Client-side RPC resilience: retries, breakers, hedging.

The paper's environment is one where "failures are assumed to be
common", yet a bare :meth:`Network.call` gives up on the first drop: a
lost message burns the full timeout and surfaces as a failure.  This
module is the recovery layer that lets the weak-set iterators measure
the *semantics* under faults rather than the transport's fragility:

* :class:`RetryPolicy` — exponential backoff with deterministic jitter
  (drawn from the simulation's named RNG streams, so runs stay
  seed-reproducible) and a retryable-failure classification over the
  :class:`~repro.errors.FailureException` hierarchy.  Only *transport*
  failures (timeout / crash / link / partition) are retried by default;
  application-level failures raised by a live server are not.
* :class:`CircuitBreaker` — per-(src, dst) closed/open/half-open state
  with cooldown, so clients stop hammering nodes the failure detector
  already suspects; open circuits fail fast without touching the wire.
* :class:`ResilientClient` — the facade weak-set repositories speak
  through: :meth:`ResilientClient.call` (retry + breaker)
  and :meth:`ResilientClient.hedged_call` (after a quantile delay,
  issue a duplicate request to the next replica and take the first
  reply).

Every recovery action is counted on the kernel's metrics registry
(``rpc.retries``, ``rpc.hedges``, ``rpc.hedge_wins``,
``rpc.breaker_trips``, ``rpc.breaker_fast_fails``,
``overload.retry_budget_exhausted``; registered by the client that bumps
them, replica failovers by the fetch pipeline as ``rpc.failovers``) so
experiments can report recovery cost next to recovery benefit (E16).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional, Sequence

from ..errors import (
    CircuitOpenFailure,
    FailureException,
    LinkDownFailure,
    NodeCrashFailure,
    PartitionFailure,
    ServerBusyFailure,
    TimeoutFailure,
)
from ..sim.events import Fork, Signal, Sleep, Wait
from ..sim.rng import Stream
from .address import NodeId

if TYPE_CHECKING:  # pragma: no cover
    from .fabric import Network

__all__ = [
    "TRANSPORT_FAILURES",
    "RetryPolicy",
    "BreakerState",
    "BreakerPolicy",
    "CircuitBreaker",
    "RetryBudgetPolicy",
    "RetryBudget",
    "AIMDPolicy",
    "AdaptiveLimiter",
    "ResilientClient",
]

#: Failures raised by the transport itself (as opposed to exceptions a
#: live server raised and shipped back in a reply).  Only these feed the
#: circuit breaker and are retried by the default policy: a server that
#: *answered* — even with ``UnreachableObjectFailure`` — is healthy.
TRANSPORT_FAILURES = (TimeoutFailure, NodeCrashFailure,
                      LinkDownFailure, PartitionFailure)

#: What another attempt can help with: transport failures, an open
#: circuit (waiting out the cooldown) and a busy server.  Application
#: failures — a reply saying "no such object here" — propagate at once.
RETRYABLE_FAILURES = TRANSPORT_FAILURES + (CircuitOpenFailure,
                                           ServerBusyFailure)


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Doubling backoff with deterministic full jitter, for
    :data:`RETRYABLE_FAILURES`."""

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0

    def is_retryable(self, exc: BaseException) -> bool:
        return isinstance(exc, RETRYABLE_FAILURES)

    def backoff(self, attempt: int, stream: Stream) -> float:
        """Delay before retry number ``attempt`` (1-based): full jitter.

        The whole delay is drawn uniformly from ``[0, nominal]``, where
        the nominal delay doubles per attempt up to ``max_delay`` — the
        "full jitter" scheme, which decorrelates a cohort of clients
        whose calls all failed at the same instant (the retry-storm
        synchronization that additive jitter cannot break up).

        The draw comes from a named simulation stream, so the schedule
        is a pure function of (seed, call order) — reproducible chaos,
        per the repo's determinism rule.
        """
        nominal = min(self.max_delay,
                      self.base_delay * 2.0 ** (attempt - 1))
        return stream.uniform(0.0, nominal)


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------
class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Configuration for per-destination circuit breakers."""

    failure_threshold: int = 5     # consecutive transport failures to trip
    cooldown: float = 2.0          # open time before a half-open probe


class CircuitBreaker:
    """Closed / open / half-open breaker for one (src, dst) pair.

    Closed circuits pass everything and count consecutive transport
    failures; at the threshold the circuit *trips* open.  Open circuits
    fail fast (no message is sent) until the cooldown elapses, then
    admit exactly one half-open probe: success closes the circuit,
    failure re-opens it for another cooldown.
    """

    __slots__ = ("policy", "state", "failures", "opened_at", "trips",
                 "_probe_inflight")

    def __init__(self, policy: Optional[BreakerPolicy] = None):
        self.policy = policy if policy is not None else BreakerPolicy()
        self.state = BreakerState.CLOSED
        self.failures = 0              # consecutive failures while closed
        self.opened_at: Optional[float] = None
        self.trips = 0                 # transitions into OPEN
        self._probe_inflight = False

    def allow(self, now: float) -> bool:
        """May a call proceed right now?  (May move OPEN → HALF_OPEN.)"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            assert self.opened_at is not None
            if now - self.opened_at >= self.policy.cooldown:
                self.state = BreakerState.HALF_OPEN
                self._probe_inflight = True
                return True
            return False
        # HALF_OPEN: one probe at a time
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        return True

    def record_success(self) -> None:
        self.state = BreakerState.CLOSED
        self.failures = 0
        self.opened_at = None
        self._probe_inflight = False

    def record_failure(self, now: float) -> bool:
        """Record a transport failure; True if this call tripped it open."""
        if self.state is BreakerState.HALF_OPEN:
            self._probe_inflight = False
            self._open(now)
            return True
        if self.state is BreakerState.OPEN:
            return False               # stale result from before the trip
        self.failures += 1
        if self.failures >= self.policy.failure_threshold:
            self._open(now)
            return True
        return False

    def _open(self, now: float) -> None:
        self.state = BreakerState.OPEN
        self.opened_at = now
        self.failures = 0
        self.trips += 1

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.state.value}, trips={self.trips})"


# ---------------------------------------------------------------------------
# retry budgets (the anti-storm governor)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RetryBudgetPolicy:
    """Token-bucket retry budget: retries as a bounded fraction of
    first attempts.

    Every first attempt deposits ``ratio`` tokens (capped at
    ``burst``); every retry withdraws one whole token.  In steady
    state retries therefore cannot exceed ``ratio`` x the first-attempt
    rate — the property that turns a retrying client from a load
    *amplifier* (the metastable retry-storm ingredient) into a bounded
    overhead.  ``burst`` is both the bucket cap and the initial
    balance, so isolated failures still get their full retry ladder.
    """

    ratio: float = 0.1
    burst: float = 10.0


class RetryBudget:
    """Mutable token-bucket state for one client."""

    __slots__ = ("policy", "tokens")

    def __init__(self, policy: Optional[RetryBudgetPolicy] = None):
        self.policy = policy if policy is not None else RetryBudgetPolicy()
        self.tokens = self.policy.burst

    def deposit(self) -> None:
        """Record a first attempt: earn ``ratio`` of a retry token."""
        self.tokens = min(self.policy.burst, self.tokens + self.policy.ratio)

    def withdraw(self) -> bool:
        """Spend one token for a retry; False = budget exhausted."""
        # Epsilon absorbs float dust from accumulated ratio deposits
        # (ten 0.1-deposits sum to 0.9999999999999999).
        if self.tokens >= 1.0 - 1e-9:
            self.tokens = max(0.0, self.tokens - 1.0)
            return True
        return False

    def __repr__(self) -> str:
        return f"RetryBudget(tokens={self.tokens:.2f}/{self.policy.burst})"


# ---------------------------------------------------------------------------
# AIMD adaptive concurrency
# ---------------------------------------------------------------------------
#: The window's fixed shape: it starts at ``_AIMD_INITIAL``, grows by
#: one full step per window of successes, halves on overload — at most
#: once per ``_AIMD_COOLDOWN`` seconds, so one burst of sheds from a
#: single congested instant does not collapse it — and never falls
#: below ``_AIMD_MIN_WINDOW``.
_AIMD_MIN_WINDOW = 1
_AIMD_INITIAL = 8
_AIMD_INCREASE = 1.0
_AIMD_BACKOFF = 0.5
_AIMD_COOLDOWN = 0.05


@dataclass(frozen=True)
class AIMDPolicy:
    """The ceiling of an additive-increase / multiplicative-decrease
    window.

    The TCP congestion-control shape applied to client concurrency:
    each clean success grows the window by ``1 / window``; an overload
    signal — a :class:`~repro.errors.ServerBusyFailure` or a timeout —
    halves it.  The rest of the shape is fixed (``_AIMD_*`` above).
    """

    max_window: int = 64


class AdaptiveLimiter:
    """AIMD in-flight window shared by a client's pipelines.

    The fetch and write pipelines read :attr:`window` as their
    in-flight cap (their static ``window`` constants become upper
    bounds) and feed back every batch outcome.  The current window is
    exported as the ``overload.limiter_window`` gauge.
    """

    __slots__ = ("policy", "_window", "_last_decrease", "_m_window")

    def __init__(self, policy: Optional[AIMDPolicy] = None, metrics=None):
        self.policy = policy if policy is not None else AIMDPolicy()
        self._window = float(min(_AIMD_INITIAL, self.policy.max_window))
        self._last_decrease = -_AIMD_COOLDOWN
        self._m_window = (metrics.gauge("overload.limiter_window")
                          if metrics is not None else None)
        self._publish()

    @property
    def window(self) -> int:
        return int(self._window)

    def on_success(self) -> None:
        self._window = min(float(self.policy.max_window),
                           self._window + _AIMD_INCREASE / max(1.0, self._window))
        self._publish()

    def on_overload(self, now: float) -> None:
        if now - self._last_decrease < _AIMD_COOLDOWN:
            return
        self._last_decrease = now
        self._window = max(float(_AIMD_MIN_WINDOW), self._window * _AIMD_BACKOFF)
        self._publish()

    def _publish(self) -> None:
        if self._m_window is not None:
            self._m_window.set(self.window)

    def __repr__(self) -> str:
        return f"AdaptiveLimiter(window={self._window:.2f})"


# ---------------------------------------------------------------------------
# the resilient client
# ---------------------------------------------------------------------------
class ResilientClient:
    """Retry + breaker + hedging on top of :meth:`Network.call`.

    One instance serves one logical client (it is keyed by the ``src``
    of each call for breaker purposes, so sharing across clients is
    safe).  Construct with the knobs you want; everything is off by
    default except single-attempt pass-through:

    * ``policy`` — a :class:`RetryPolicy` (default: 3 attempts).
    * ``breaker`` — a :class:`BreakerPolicy` enables per-(src, dst)
      circuit breakers.
    * ``hedge_delay`` — enables :meth:`hedged_call`: after this many
      seconds without a reply (a latency-quantile estimate), a duplicate
      request goes to the next candidate and the first reply wins.
    * ``retry_budget`` — a :class:`RetryBudgetPolicy` caps this client's
      retries at a bounded fraction of its first attempts, so a
      saturated server never sees the retry storm that turns overload
      into congestion collapse.
    """

    def __init__(self, net: "Network", policy: Optional[RetryPolicy] = None,
                 breaker: Optional[BreakerPolicy] = None,
                 hedge_delay: Optional[float] = None,
                 retry_budget: Optional[RetryBudgetPolicy] = None,
                 stream_name: str = "net.resilience"):
        self.net = net
        self.policy = policy if policy is not None else RetryPolicy()
        self.breaker_policy = breaker
        self.hedge_delay = hedge_delay
        self.retry_budget = (RetryBudget(retry_budget)
                             if retry_budget is not None else None)
        self.stream = net.kernel.stream(stream_name)
        self._breakers: dict[tuple[NodeId, NodeId], CircuitBreaker] = {}
        #: Destination that answered the most recent hedged_call (read it
        #: immediately after the call returns; no yield in between).
        self.last_winner: Optional[NodeId] = None
        metrics = net.kernel.obs.metrics
        self._m_retries = metrics.counter("rpc.retries")
        self._m_hedges = metrics.counter("rpc.hedges")
        self._m_hedge_wins = metrics.counter("rpc.hedge_wins")
        self._m_breaker_trips = metrics.counter("rpc.breaker_trips")
        self._m_breaker_fast_fails = metrics.counter("rpc.breaker_fast_fails")
        self._m_budget_exhausted = metrics.counter(
            "overload.retry_budget_exhausted")

    # -- breakers ---------------------------------------------------------
    def breaker_for(self, src: NodeId, dst: NodeId) -> Optional[CircuitBreaker]:
        if self.breaker_policy is None:
            return None
        key = (src, dst)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(self.breaker_policy)
            self._breakers[key] = breaker
        return breaker

    def _admit(self, src: NodeId, dst: NodeId) -> CircuitBreaker:
        """Breaker gate (with a breaker policy): returns the breaker, or
        raises CircuitOpenFailure."""
        breaker = self.breaker_for(src, dst)
        if not breaker.allow(self.net.now):
            self._m_breaker_fast_fails.value += 1
            raise CircuitOpenFailure(f"circuit {src}->{dst} is open")
        return breaker

    def _settle(self, breaker: CircuitBreaker,
                exc: Optional[FailureException]) -> None:
        """Feed one attempt's outcome to its breaker (transport failures
        only).  Without a breaker policy an attempt has no breaker, and
        neither this nor :meth:`_admit` is called."""
        if exc is None:
            breaker.record_success()
        elif isinstance(exc, TRANSPORT_FAILURES):
            if breaker.record_failure(self.net.now):
                self._m_breaker_trips.value += 1
        else:
            # The destination answered (with an application error):
            # that's evidence of health, not failure.
            breaker.record_success()

    # -- the retrying call ------------------------------------------------
    def call(self, src: NodeId, dst: NodeId, service: str, method: str,
             *args: Any, timeout: Optional[float] = None,
             max_attempts: Optional[int] = None,
             **kwargs: Any) -> Generator[Any, Any, Any]:
        """Blocking RPC with retries; ``timeout`` bounds each attempt.

        ``max_attempts`` overrides the policy's count for this call
        (``1`` = no retry — used by failover loops whose alternates
        *are* the retry).  Raises the last failure when the attempts run
        out.
        """
        attempts = max_attempts if max_attempts is not None else self.policy.max_attempts
        tracer = self.net.kernel.obs.tracer
        span = tracer.start("rpc.call", dst=dst, service=service,
                            method=method)
        last_exc: Optional[FailureException] = None
        attempt = 0
        try:
            while True:
                attempt += 1
                if attempt == 1 and self.retry_budget is not None:
                    self.retry_budget.deposit()
                try:
                    breaker = (None if self.breaker_policy is None
                               else self._admit(src, dst))
                except CircuitOpenFailure as exc:
                    last_exc = exc
                else:
                    try:
                        result = yield from self.net.call(
                            src, dst, service, method, *args,
                            timeout=timeout, **kwargs)
                    except FailureException as exc:
                        if breaker is not None:
                            self._settle(breaker, exc)
                        last_exc = exc
                    else:
                        if breaker is not None:
                            self._settle(breaker, None)
                        tracer.finish(span, outcome="ok", attempts=attempt)
                        return result
                if attempt >= attempts or not self.policy.is_retryable(last_exc):
                    raise last_exc
                if self.retry_budget is not None and not self.retry_budget.withdraw():
                    # Out of retry tokens: surface the failure instead of
                    # piling more load onto a struggling server.
                    self._m_budget_exhausted.value += 1
                    raise last_exc
                delay = self.policy.backoff(attempt, self.stream)
                # A shedding server tells us when it expects capacity;
                # never come back sooner than that.
                retry_after = getattr(last_exc, "retry_after", 0.0) or 0.0
                if retry_after > delay:
                    delay = retry_after
                self._m_retries.value += 1
                yield Sleep(delay)
        except BaseException as exc:
            tracer.finish(span, outcome=type(exc).__name__, attempts=attempt)
            raise

    # -- hedged calls -----------------------------------------------------
    def hedged_call(self, src: NodeId, dsts: Sequence[NodeId], service: str,
                    method: str, *args: Any, timeout: Optional[float] = None,
                    method_for: Optional[dict[NodeId, str]] = None,
                    **kwargs: Any) -> Generator[Any, Any, Any]:
        """First reply wins over a staggered fan-out of identical requests.

        The request goes to ``dsts[0]``; every ``hedge_delay`` seconds
        without a reply the next candidate receives a duplicate.  The
        first successful reply is returned (its destination is recorded
        in :attr:`last_winner`); duplicates resolving later are ignored
        by the transport's one-shot reply signals.  Fails only when all
        launched attempts have failed.

        ``method_for`` overrides the method per destination — the
        replica-fetch path races the home's authoritative ``get_object``
        against the replicas' non-authoritative ``get_object_replica``.

        Requires ``hedge_delay``; with a single candidate this degrades
        to a plain breaker-gated call.
        """
        method_for = method_for or {}
        if not dsts:
            raise FailureException(f"hedged {service}.{method}: no candidates")
        if self.hedge_delay is None or len(dsts) == 1:
            return (yield from self.call(
                src, dsts[0], service, method_for.get(dsts[0], method), *args,
                timeout=timeout, max_attempts=1, **kwargs))
        tracer = self.net.kernel.obs.tracer
        # One span covers the whole race; forked attempts nest under it
        # via the kernel's span adoption at Fork.
        span = tracer.start("rpc.call", dst=dsts, service=service,
                            method=method, hedged=True)
        sig = Signal(name=f"hedge:{service}.{method}")
        state: dict[str, Any] = {"pending": 0, "done_launching": False,
                                 "error": None}

        def attempt(dst: NodeId, breaker: Optional[CircuitBreaker],
                    hedged: bool) -> Generator:
            try:
                value = yield from self.net.call(
                    src, dst, service, method_for.get(dst, method), *args,
                    timeout=timeout, **kwargs)
            except FailureException as exc:
                if breaker is not None:
                    self._settle(breaker, exc)
                state["error"] = exc
                state["pending"] -= 1
                if (state["pending"] <= 0 and state["done_launching"]
                        and not sig.fired):
                    sig.fail(exc)
            except BaseException as exc:  # noqa: BLE001 - surface sim bugs
                state["pending"] -= 1
                if not sig.fired:
                    sig.fail(exc)
            else:
                if breaker is not None:
                    self._settle(breaker, None)
                if not sig.fired:
                    self.last_winner = dst
                    if hedged:
                        self._m_hedge_wins.value += 1
                    sig.fire(value)
                state["pending"] -= 1

        try:
            launched = 0
            for index, dst in enumerate(dsts):
                last = index == len(dsts) - 1
                try:
                    breaker = (None if self.breaker_policy is None
                               else self._admit(src, dst))
                except CircuitOpenFailure as exc:
                    state["error"] = exc
                    continue
                launched += 1
                if launched > 1:
                    self._m_hedges.value += 1
                state["pending"] += 1
                if last:
                    state["done_launching"] = True
                yield Fork(attempt(dst, breaker, hedged=launched > 1),
                           f"hedge:{method}@{dst}", True)
                if last:
                    break
                # ``sig`` fails with a FailureException only once
                # ``done_launching`` is set, after the last launch: in
                # here it fires, times out or fails with a non-failure
                # error, which propagates.
                try:
                    value = yield Wait(sig, timeout=self.hedge_delay)
                except TimeoutFailure:
                    continue            # primary is slow: hedge
                tracer.finish(span, outcome="ok", launched=launched,
                              winner=self.last_winner)
                return value
            # All candidates launched (or skipped): wait for a straggler.
            state["done_launching"] = True
            if state["pending"] == 0:
                raise state["error"] if state["error"] is not None else \
                    CircuitOpenFailure(f"all circuits {src}->{list(dsts)} open")
            value = yield Wait(sig)
        except BaseException as exc:
            tracer.finish(span, outcome=type(exc).__name__)
            raise
        tracer.finish(span, outcome="ok", launched=launched,
                      winner=self.last_winner)
        return value

    def __repr__(self) -> str:
        knobs = [f"attempts={self.policy.max_attempts}"]
        if self.breaker_policy is not None:
            knobs.append("breaker")
        if self.hedge_delay is not None:
            knobs.append(f"hedge={self.hedge_delay}")
        return f"ResilientClient({', '.join(knobs)})"
