"""Bounded server-side execution: admission control and load shedding.

Until this module landed, every incoming RPC spawned its own handler
process, so a server could never saturate — offered load past any knee
just meant more concurrent sleeps.  A :class:`BoundedExecutor` makes
capacity finite the way a real server's worker pool does:

* at most ``concurrency`` request handlers run at once;
* excess requests wait in a bounded admission queue with a pluggable
  discipline — ``fifo`` (fairness) or ``priority`` (classes carried in
  RPC metadata: interactive reads above background anti-entropy/repair,
  with aging so low classes cannot starve);
* when the queue is full the executor *sheds*: the victim — the
  incoming request under fifo, the least urgent under priority — is
  answered immediately with
  :class:`~repro.errors.ServerBusyFailure` carrying a ``retry_after``
  hint derived from observed queue depth x EWMA service time;
* under a ``brownout`` policy, a deep queue degrades eligible reads
  (the service's ``DEGRADED_METHODS`` table) instead of queuing them:
  the server answers from its last committed state with zero service
  time, tagged stale — degrading freshness, never availability, which
  a weak set's specification explicitly permits.  The degraded path is
  asked for only once the queue is deep; it returns whether it
  answered, and a request it could not answer queues or sheds.

The executor is generic over "jobs" (callables handed in by the
transport), so it lives in ``repro.net`` and knows nothing about the
store.  Everything is observable under ``overload.*``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from ..errors import ServerBusyFailure, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Kernel

__all__ = ["PRIORITY_HIGH", "PRIORITY_NORMAL", "PRIORITY_LOW",
           "DISCIPLINES", "ExecutorPolicy", "BoundedExecutor"]

#: Priority classes carried in RPC metadata (lower value = more urgent).
PRIORITY_HIGH = 0      # failure-detector probes, health checks
PRIORITY_NORMAL = 1    # interactive client traffic (the default)
PRIORITY_LOW = 2       # background anti-entropy, repair, scrub

DISCIPLINES = ("fifo", "priority")

#: EWMA smoothing for the observed per-request service time.
_EWMA_ALPHA = 0.2

#: Seconds of queue wait that promote an entry one priority class
#: (anti-starvation).
_AGING = 0.5

#: The least ``retry_after`` a shed carries, so clients never spin on a
#: zero hint; also the service-time estimate before any is observed.
_RETRY_AFTER_FLOOR = 0.005


class ExecutorPolicy:
    """Dials for one node's bounded executor.

    ``concurrency`` is the worker-pool width (a world with no executor
    at all is the seed model: unbounded handler spawning);
    ``queue_limit=None`` bounds workers but queues without limit — the
    classic congestion-collapse ablation, where queueing delay grows
    past every caller's timeout.
    Brownout starts at half the queue limit (or, unbounded, at the
    worker count).
    """

    __slots__ = ("concurrency", "queue_limit", "discipline", "brownout")

    def __init__(self, concurrency: int,
                 queue_limit: Optional[int] = None,
                 discipline: str = "fifo",
                 brownout: bool = False):
        if discipline not in DISCIPLINES:
            raise SimulationError(
                f"unknown admission discipline {discipline!r}; "
                f"known: {DISCIPLINES}")
        if concurrency < 1:
            raise SimulationError("executor concurrency must be >= 1")
        if queue_limit is not None and queue_limit < 0:
            raise SimulationError("executor queue_limit must be >= 0")
        self.concurrency = concurrency
        self.queue_limit = queue_limit
        self.discipline = discipline
        self.brownout = brownout

    def __repr__(self) -> str:
        return (f"ExecutorPolicy(concurrency={self.concurrency}, "
                f"queue_limit={self.queue_limit}, "
                f"discipline={self.discipline!r}, "
                f"brownout={self.brownout})")


class _Entry:
    """One queued admission: the job plus its metadata."""

    __slots__ = ("priority", "enqueued_at", "seq", "start", "shed")

    def __init__(self, priority: int, enqueued_at: float, seq: int,
                 start: Callable, shed: Callable):
        self.priority = priority
        self.enqueued_at = enqueued_at
        self.seq = seq
        self.start = start
        self.shed = shed


class BoundedExecutor:
    """A worker pool + admission queue for one :class:`~repro.net.Node`.

    The transport submits each inbound request as callables:
    ``start(release)`` begins handler execution and must call
    ``release()`` exactly once when the handler settles; ``shed(exc)``
    answers the caller with a busy error; ``degrade()`` answers from the
    service's degraded path and says whether it could.  The executor
    never touches messages or services directly.
    """

    def __init__(self, kernel: "Kernel", policy: ExecutorPolicy,
                 name: str = ""):
        self.kernel = kernel
        self.policy = policy
        self.name = name
        self.running = 0
        self._queue: deque[_Entry] = deque()
        self._seq = 0
        self._epoch = 0            # bumped by reset(); stales old releases
        #: EWMA of observed handler service time (virtual seconds);
        #: seeds at the floor so the first hints are sane.
        self.ewma_service_time = _RETRY_AFTER_FLOOR
        self._brownout_depth = (max(1, policy.queue_limit // 2)
                                if policy.queue_limit else policy.concurrency)
        # counters are shared across the fleet (one registry per
        # kernel); the queue-depth gauge tracks the *total* backlog.
        metrics = kernel.obs.metrics
        self._m_admitted = metrics.counter("overload.admitted")
        self._m_shed = metrics.counter("overload.shed")
        self._m_brownout = metrics.counter("overload.brownout_served")
        self._m_depth = metrics.gauge("overload.queue_depth")
        self._m_wait = metrics.histogram("overload.queue_wait")

    # -- capacity accounting ---------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def retry_after(self) -> float:
        """The shed hint: how long until the backlog likely drains.

        Queue depth (plus the request being shed) times the EWMA
        service time, divided over the worker pool — the server's own
        estimate of its current residence time, floored so clients
        never spin on a zero hint.
        """
        backlog = len(self._queue) + 1
        estimate = backlog * self.ewma_service_time / self.policy.concurrency
        return max(_RETRY_AFTER_FLOOR, estimate)

    # -- admission --------------------------------------------------------
    def submit(self, priority: int, start: Callable, shed: Callable,
               degrade: Optional[Callable[[], bool]] = None) -> None:
        """Admit, degrade, queue, or shed one inbound request.

        ``degrade`` is called only under a brownout policy with the
        queue deep: it answers the request from the service's degraded
        path and returns True, or returns False when there is none, and
        the request then queues or sheds like any other.
        """
        policy = self.policy
        if self.running < policy.concurrency:
            self._dispatch_now(start)
            return
        queue = self._queue
        if (policy.brownout and degrade is not None
                and len(queue) >= self._brownout_depth and degrade()):
            self._m_brownout.value += 1
            return
        limit = policy.queue_limit
        if limit is not None and len(queue) >= limit:
            self._shed_for(priority, start, shed)
            return
        self._enqueue(priority, start, shed)

    def _enqueue(self, priority: int, start: Callable,
                 shed: Callable) -> None:
        self._seq += 1
        self._queue.append(_Entry(priority, self.kernel.clock.now, self._seq,
                                  start, shed))
        self._m_depth.value += 1

    def _shed_for(self, priority: int, start: Callable,
                  shed: Callable) -> None:
        """Queue full: pick the victim per discipline and reject it."""
        policy = self.policy
        queue = self._queue
        if policy.queue_limit == 0 or not queue:
            self._reject(shed)
            return
        if policy.discipline == "fifo":
            # Fairness: latecomers are rejected, the queue keeps order.
            self._reject(shed)
            return
        # priority: shed the least urgent first, by the aging-adjusted
        # key (waiting promotes an entry one class per _AGING seconds,
        # so low classes cannot starve), the latest on a tie.  The
        # incoming request competes at age zero.
        now = self.kernel.clock.now
        victim_i, victim_key = 0, None
        for i, entry in enumerate(queue):
            key = (entry.priority - (now - entry.enqueued_at) / _AGING,
                   entry.seq)
            if victim_key is None or key > victim_key:
                victim_i, victim_key = i, key
        if victim_key[0] <= priority:
            # Everything queued is at least as urgent as the newcomer.
            self._reject(shed)
            return
        victim = queue[victim_i]
        del queue[victim_i]
        self._m_depth.value -= 1
        self._reject(victim.shed)
        self._enqueue(priority, start, shed)

    def _reject(self, shed: Callable) -> None:
        self._m_shed.inc()
        shed(ServerBusyFailure(
            f"{self.name or 'server'} at capacity "
            f"(running={self.running}, queued={len(self._queue)})",
            retry_after=self.retry_after()))

    # -- dispatch ---------------------------------------------------------
    def _dispatch_now(self, start: Callable) -> None:
        self.running += 1
        self._m_admitted.value += 1
        epoch = self._epoch
        clock = self.kernel.clock
        started_at = clock.now
        released = False

        def release() -> None:
            nonlocal released
            if released or epoch != self._epoch:
                return             # double release, or reset() intervened
            released = True
            self.running -= 1
            elapsed = clock.now - started_at
            self.ewma_service_time += _EWMA_ALPHA * (
                elapsed - self.ewma_service_time)
            self._drain()

        start(release)

    def _drain(self) -> None:
        queue = self._queue
        concurrency = self.policy.concurrency
        while queue and self.running < concurrency:
            entry = self._pick()
            self._m_depth.value -= 1
            self._m_wait.observe(self.kernel.clock.now - entry.enqueued_at)
            self._dispatch_now(entry.start)

    def _pick(self) -> _Entry:
        queue = self._queue
        if self.policy.discipline == "fifo":
            return queue.popleft()
        # The most urgent by _shed_for's key, the earliest on a tie.
        now = self.kernel.clock.now
        best_i, best_key = 0, None
        for i, entry in enumerate(queue):
            key = (entry.priority - (now - entry.enqueued_at) / _AGING,
                   entry.seq)
            if best_key is None or key < best_key:
                best_i, best_key = i, key
        entry = queue[best_i]
        del queue[best_i]
        return entry

    # -- crash ------------------------------------------------------------
    def reset(self) -> None:
        """Crash semantics: queued requests vanish (their replies are
        lost, like any in-flight handler's), workers are gone."""
        self._m_depth.add(-len(self._queue))
        self._queue.clear()
        self.running = 0
        self._epoch += 1

    def __repr__(self) -> str:
        return (f"BoundedExecutor({self.name!r}, "
                f"running={self.running}/{self.policy.concurrency}, "
                f"queued={len(self._queue)})")
