"""The batched, pipelined fetch engine behind every element read path.

Every iterator variant used to issue one ``get_object`` RPC per element
per invocation — a full WAN round-trip per member, exactly the serial
cost the paper's weak semantics exist to avoid.  This module factors the
*traversal mechanics* out of the *iteration semantics* (the split
argued for by Agarwal et al.'s linearizable iterators and Krishna et
al.'s visibility-based specifications): iterators keep deciding *what*
may be yielded; the :class:`FetchPipeline` decides *how* the bytes get
here.  It has no retry policy: a fetch that fails is an ``unreachable``
result, and whether to block, fail or return short is the iterator's
row's to say (``weaksets/iterator.py`` builds every pipeline in
``src/``, the dynamic-sets prefetcher's included).

Two pieces:

:class:`FetchPlanner`
    Orders candidate elements (closest-first, else by name) and ranks
    hosts by expected latency — the one shared
    home/replica-ranking helper.

:class:`FetchPipeline`
    A sliding window of in-flight fetches that overlaps RPCs with
    iterator suspends.  Same-home candidates are coalesced into one
    batched ``get_objects`` multi-get (one service-time charge and one
    round-trip for the whole batch); transport failures fall back to
    replica copies via batched ``get_objects_replica``, closest replica
    first.  Per-call resilience (retries, circuit breakers)
    applies per *batch* through ``Repository._call``.

Soundness — why buffering across invocations cannot invent elements:

* Results are *validated at pop time*, not trusted at fetch time.  The
  pipeline subscribes to :meth:`World.on_change` (which fires on every
  membership **and** connectivity change) and stamps each batch with the
  epoch at issue.  If the epoch is unchanged when a result is popped,
  the world was constant over [issue, pop] ⊇ [serve, pop]: the object
  existed at serve, so the element was a member then ("object exists at
  its home" implies "still a member"), hence still a member — and its
  home still reachable — at the pop itself.  The popping invocation's
  own snapshot justifies the yield, and the pop costs zero RPCs.
* If the epoch moved, ``validation="probe"`` re-asks the home
  (``has_object``) inside the popping invocation: ``True`` proves the
  element is *currently* a member (objects are immutable, so the
  buffered value is still its value); ``False`` is the home's
  authoritative "removed" and the result is reclassified ``gone``; a
  transport failure reclassifies it ``unreachable``.
* ``validation="none"`` (grow-only quorum reads, reads under the
  strong set's lock) skips the pop-time check: a member of a grow-only
  or locked collection is never removed, so no buffered value goes
  stale.
* Cache hits bypass validation by design — client-cache staleness is a
  measured, intended weakness (E5a), not an accident of buffering.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

from ..errors import (CircuitOpenFailure, DisconnectedError,
                      FailureException, NoSuchObjectError,
                      ServerBusyFailure)
from ..net.address import NodeId
from ..net.resilience import TRANSPORT_FAILURES
from ..net.wire import unwrap
from ..sim.events import Signal, Wait
from .elements import Element, ObjectId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .repository import Repository

__all__ = ["FetchPlanner", "FetchPipeline", "FetchResult", "rank_hosts",
           "order_closest_first", "VALIDATION_MODES"]

#: Pop-time validation policies (see module docstring).
VALIDATION_MODES = ("none", "probe")

#: Failures that may divert a batch to replica copies — transport
#: faults, tripped breakers, and admission sheds (an overloaded home's
#: replicas may well have headroom); anything else is a real answer.
_DIVERTABLE = TRANSPORT_FAILURES + (CircuitOpenFailure, ServerBusyFailure)


def rank_hosts(net, origin: NodeId, hosts: Iterable[NodeId]) -> tuple[NodeId, ...]:
    """Reachable ``hosts`` ordered by expected latency from ``origin``.

    The one shared ranking helper: a ``"nearest"`` membership read,
    the replica order of the failover sweep, and the planner all use it
    (deterministic: latency, then node id).

    Hot on every membership read, failover sweep, and plan, so the
    answer comes from the transport's reachability table, memoized per
    ``(origin, hosts)`` for as long as connectivity stands still (hits
    are counted as ``fetch.rank_cache_hits``).
    """
    return net.transport.rank(origin, tuple(hosts))


def order_closest_first(net, origin: NodeId,
                        elements: Iterable[Element]) -> list[Element]:
    """The paper's "fetching 'closer' files first": sort candidates by
    expected latency to their home, then name; unreachable homes sort
    last (infinite estimated latency).  The network is asked once per
    distinct home, not once per element."""
    elements = list(elements)
    latency: dict[NodeId, float] = {}
    for home in {e.home for e in elements}:
        estimate = net.expected_latency(origin, home)
        latency[home] = estimate if estimate is not None else float("inf")
    return sorted(elements, key=lambda e: (latency[e.home], e.name))


class FetchPlanner:
    """Orders fetch candidates and picks hosts for the pipeline."""

    def __init__(self, repo: "Repository", *, closest_first: bool = True):
        self.repo = repo
        self.closest_first = closest_first

    def order(self, elements: Iterable[Element]) -> list[Element]:
        if self.closest_first:
            return order_closest_first(self.repo.net, self.repo.client, elements)
        # name order, not the caller's: a frozenset's iteration order
        # leaks the process-global oid counter and hash seed
        return sorted(elements, key=attrgetter("name"))

    def rank_replicas(self, element: Element) -> tuple[NodeId, ...]:
        return rank_hosts(self.repo.net, self.repo.client, element.replicas)


@dataclass(frozen=True)
class FetchResult:
    """One element's fate at the hands of the pipeline.

    ``status`` is ``"ok"`` (value fetched), ``"gone"`` (the home's
    authoritative "removed" — or a give-up-free zombie), or
    ``"unreachable"`` (transport failure after home *and* replica
    attempts).
    """

    element: Element
    value: Any = None
    status: str = "ok"
    fetched_at: float = 0.0
    issue_epoch: int = -1
    from_cache: bool = False
    detail: str = field(default="", compare=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def gone(self) -> bool:
        return self.status == "gone"

    @property
    def unreachable(self) -> bool:
        return self.status == "unreachable"


class FetchPipeline:
    """Sliding-window batched fetcher shared by every iterator variant.

    ``window`` bounds in-flight *elements*; ``batch_size`` bounds how
    many same-home elements one ``get_objects`` RPC may carry.  With
    ``batch_size=1`` the pipeline degenerates to pure parallel
    pipelining — the dynamic-sets prefetcher's default.

    Transport failures are delivered immediately as ``unreachable``
    results: the iterator owns the retry policy (per-invocation
    resubmission, optimistic blocking, pessimistic failing — whatever
    its figure requires), the pipeline has none.

    ``use_cache`` is deliberately a required keyword: cache policy is
    the caller's semantic choice, never an accident of a default.
    """

    def __init__(self, repo: "Repository", *, use_cache: bool,
                 window: int = 8, batch_size: int = 4,
                 max_batch_bytes: Optional[int] = None,
                 size_hint: "Optional[int | Callable[[Element], int]]" = None,
                 failover: bool = False, validation: str = "none",
                 closest_first: bool = True, in_order: bool = True,
                 name: str = ""):
        if validation not in VALIDATION_MODES:
            raise ValueError(
                f"unknown validation mode {validation!r}; pick one of "
                f"{VALIDATION_MODES}")
        self.repo = repo
        self.world = repo.world
        self.planner = FetchPlanner(repo, closest_first=closest_first)
        self.window = max(1, window)
        self.batch_size = max(1, batch_size)
        # Byte-aware coalescing: cap each multi-get's estimated *reply*
        # bytes alongside the item cap.  The client does not know object
        # sizes before fetching, so ``size_hint`` supplies the estimate
        # (a constant, or a callable per element); with no hint the byte
        # cap is inert and batches are item-capped only.
        self.max_batch_bytes = max_batch_bytes
        self.size_hint = size_hint
        self.use_cache = use_cache
        self.failover = failover
        self.validation = validation
        self.in_order = in_order
        self.name = name or f"fetch-{repo.client}"
        # -- work state ------------------------------------------------
        # Awaiting a batch, in accepted order (oids are unique here: an
        # element is pending at most once) — and the same elements by
        # home, each home's in that order too, so coalescing a batch
        # walks one home's queue, never everything that remains.
        self._todo: OrderedDict[ObjectId, Element] = OrderedDict()
        self._todo_by_home: dict[NodeId, deque[Element]] = {}
        self._live: dict[ObjectId, Element] = {}      # submitted, undelivered
        self._settled: dict[ObjectId, FetchResult] = {}
        self._order: deque[ObjectId] = deque()        # delivery order
        self._arrivals: deque[ObjectId] = deque()     # settle order
        self._in_flight = 0
        self._batches_issued = 0
        self._stopped = False
        self._procs: list = []
        self._waiters: list[Signal] = []              # blocked consumers
        self._idle: list[Signal] = []                 # idle workers
        self._span = None
        self._unsubscribe: Optional[Callable[[], None]] = None
        # -- the freshness epoch (see module docstring) -----------------
        self._epoch = 0
        # -- counters ---------------------------------------------------
        self.fetched = 0
        self.gone = 0
        self.cache_hits = 0
        # -- observability (instruments pre-resolved, hot-path idiom) ---
        obs = repo.obs
        self._tracer = obs.tracer
        metrics = obs.metrics
        self._m_calls = metrics.counter("fetch.batch.calls")
        self._m_elements = metrics.counter("fetch.batch.elements")
        self._m_coalesced = metrics.counter("fetch.batch.coalesced")
        self._m_ok = metrics.counter("fetch.batch.ok")
        self._m_gone = metrics.counter("fetch.batch.gone")
        self._m_unreachable = metrics.counter("fetch.batch.unreachable")
        self._m_failovers = metrics.counter("fetch.batch.failovers")
        self._m_cache_hits = metrics.counter("fetch.batch.cache_hits")
        self._m_probes = metrics.counter("fetch.batch.probes")
        self._m_size = metrics.histogram("fetch.batch.size")
        self._m_latency = metrics.histogram("fetch.batch.latency")
        self._m_fetch_latency = metrics.histogram("repo.fetch_latency")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open the pipeline span, subscribe the epoch, spawn workers.

        Worker processes adopt the caller's active span as their base
        parent (the same adoption ``Fork`` performs for hedged RPC
        attempts), so batch RPCs issued from a worker still trace back
        to the ``drain`` that caused them.
        """
        if self._procs or self._stopped:
            return
        kernel = self.world.kernel
        self._span = self._tracer.start(
            "fetch.pipeline", window=self.window, batch=self.batch_size,
            client=self.repo.client)
        self._unsubscribe = self.world.on_change(self._on_world_change)
        creator = kernel.current_process
        for i in range(self.window):
            proc = kernel.spawn(self._worker(), name=f"{self.name}-w{i}",
                                daemon=True)
            if creator is not None:
                kernel.adopt(proc, creator)
            self._procs.append(proc)

    def stop(self) -> None:
        """Kill the workers, drop the epoch listener, close the span."""
        if self._stopped:
            return
        self._stopped = True
        for proc in self._procs:
            proc.kill()
        self._procs.clear()
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        if self._span is not None:
            self._tracer.finish(self._span, fetched=self.fetched,
                                gone=self.gone)
            self._span = None

    def _on_world_change(self) -> None:
        self._epoch += 1

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, elements: Iterable[Element]) -> int:
        """Plan and enqueue candidates; returns how many were accepted.

        Elements already pending (submitted, not yet delivered) are
        skipped, so per-invocation resubmission is idempotent; elements
        previously *delivered* — including as ``unreachable`` — are
        accepted again, which is how iterators express "try that one
        again this invocation".
        """
        # Only the new candidates are planned: a drain resubmits its
        # whole remainder every invocation, and ordering is a stable
        # sort, so dropping the pending ones first changes no position.
        live = self._live
        repo = self.repo
        use_cache = self.use_cache
        local = repo.offline is not None or (use_cache
                                             and repo.cache is not None)
        accepted = 0
        for element in self.planner.order(
                [e for e in elements if e.oid not in live]):
            if element.oid in live:         # a duplicate within this call
                continue
            live[element.oid] = element
            self._order.append(element.oid)
            accepted += 1
            if local:
                try:
                    served = repo._local_answer(("object", element.oid),
                                                use_cache)
                except DisconnectedError:
                    # Nothing cached offline: a worker's RPC fails fast
                    # and delivers the element ``unreachable``.
                    served = None
                if served is not None:
                    if not served[1]:
                        self.cache_hits += 1
                        self._m_cache_hits.value += 1
                    self._settle(FetchResult(
                        element, value=served[0], fetched_at=self.world.now,
                        issue_epoch=self._epoch, from_cache=True))
                    continue
            self._todo[element.oid] = element
            same_home = self._todo_by_home.get(element.home)
            if same_home is None:
                self._todo_by_home[element.home] = deque((element,))
            else:
                same_home.append(element)
        if accepted:
            self._kick_workers()
        return accepted

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    @property
    def pending(self) -> bool:
        """Anything submitted but not yet delivered?"""
        return bool(self._live)

    def next_result(self) -> Generator[Any, Any, Optional[FetchResult]]:
        """Deliver the next result (validated); ``None`` when nothing is
        pending.  In-order pipelines deliver in submission order —
        which reproduces the serial closest-first yield order — while
        arrival-order pipelines stream whatever settles first."""
        while True:
            result = self._pop_ready()
            if result is not None:
                return (yield from self._validate(result))
            if not self._live or self._stopped:
                return None
            signal = Signal(name="fetch-ready")
            self._waiters.append(signal)
            yield Wait(signal)

    def _pop_ready(self) -> Optional[FetchResult]:
        if self.in_order:
            while self._order and self._order[0] not in self._live:
                self._order.popleft()            # delivered via an older entry
            if self._order and self._order[0] in self._settled:
                oid = self._order.popleft()
                del self._live[oid]
                return self._settled.pop(oid)
            return None
        while self._arrivals:
            oid = self._arrivals.popleft()
            if oid in self._settled:
                del self._live[oid]
                return self._settled.pop(oid)
        return None

    def _validate(self, result: FetchResult) -> Generator[Any, Any, FetchResult]:
        """Pop-time revalidation (see module docstring for the proof)."""
        result = yield from self._revalidate(result)
        if result.ok:
            self.fetched += 1
            self._m_ok.value += 1
        elif result.gone:
            self.gone += 1
            self._m_gone.value += 1
        else:
            self._m_unreachable.value += 1
        return result

    def _revalidate(self, result: FetchResult) -> Generator[Any, Any, FetchResult]:
        if (self.validation == "none" or result.from_cache
                or result.unreachable):
            return result
        # validation == "probe"
        if result.issue_epoch == self._epoch:
            # World constant over [issue, pop]: the fetched fact still
            # holds at this very instant.  Free pop.
            return result
        element = result.element
        if self.repo.net.expected_latency(self.repo.client, element.home) is None:
            return FetchResult(element, status="unreachable",
                               fetched_at=self.world.now,
                               issue_epoch=result.issue_epoch,
                               detail="home unreachable at pop time")
        if result.gone:
            return result            # removals never un-happen
        self._m_probes.value += 1
        try:
            exists = yield from self.repo.probe(element)
        except FailureException as exc:
            return FetchResult(element, status="unreachable",
                               fetched_at=self.world.now,
                               issue_epoch=result.issue_epoch,
                               detail=f"probe failed: {exc}")
        if exists:
            # Still a member right now; objects are immutable, so the
            # buffered value is still its value.
            return FetchResult(element, value=result.value,
                               fetched_at=self.world.now,
                               issue_epoch=self._epoch)
        return FetchResult(element, status="gone",
                           fetched_at=self.world.now,
                           issue_epoch=self._epoch,
                           detail="removed while buffered (probe)")

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _worker(self) -> Generator:
        while not self._stopped:
            batch = self._form_batch()
            if batch is None:
                signal = Signal(name="fetch-work")
                self._idle.append(signal)
                yield Wait(signal)
                continue
            yield from self._execute(batch)

    def _form_batch(self) -> Optional[list[Element]]:
        if not self._todo:
            return None
        window = self.window
        limiter = self.repo.limiter
        if limiter is not None:
            # The AIMD window is a *cap*, not a floor: congestion shrinks
            # the effective in-flight budget below the static window.
            window = min(window, limiter.window)
        budget = window - self._in_flight
        if budget <= 0:
            return None
        # Slow start: the very first batch is a singleton, so the first
        # yield never waits on coalesced company (time-to-first is the
        # paper's headline number).
        limit = 1 if self._batches_issued == 0 else min(self.batch_size, budget)
        batch = self._take_todo(limit)
        self._in_flight += len(batch)
        self._batches_issued += 1
        return batch

    def _take_todo(self, limit: int) -> list[Element]:
        """The head of ``_todo`` and, up to ``limit`` in all, the
        elements behind it in its home's queue, in order.  Under a byte
        cap an element the remaining budget cannot take is passed over —
        it keeps its place — and a later, smaller one may still ride."""
        todo = self._todo
        _, head = todo.popitem(last=False)
        same_home = self._todo_by_home[head.home]
        same_home.popleft()          # the first of everything is its home's first
        batch = [head]
        if self.max_batch_bytes is None or self.size_hint is None:
            while same_home and len(batch) < limit:
                element = same_home.popleft()
                del todo[element.oid]
                batch.append(element)
        elif limit > 1:
            byte_budget = self.max_batch_bytes - self._estimate_bytes(head)
            passed_over = []
            while same_home and len(batch) < limit:
                element = same_home.popleft()
                cost = self._estimate_bytes(element)
                if cost > byte_budget:
                    passed_over.append(element)
                    continue
                byte_budget -= cost
                del todo[element.oid]
                batch.append(element)
            same_home.extendleft(reversed(passed_over))
        if not same_home:
            del self._todo_by_home[head.home]
        return batch

    def _estimate_bytes(self, element: Element) -> int:
        hint = self.size_hint
        if callable(hint):
            return int(hint(element))
        return int(hint or 0)

    def _execute(self, batch: list[Element]) -> Generator:
        home = batch[0].home
        oids = [e.oid for e in batch]
        issue_epoch = self._epoch
        issued_at = self.world.now
        if (len(batch) == 1 and self.failover
                and self.repo.resilience is not None
                and self.repo.resilience.hedge_delay is not None):
            yield from self._execute_hedged(batch[0], issue_epoch, issued_at)
            return
        self._m_calls.value += 1
        self._m_elements.value += len(batch)
        if len(batch) > 1:
            self._m_coalesced.value += len(batch) - 1
        self._m_size.observe(len(batch))
        span = self._tracer.start("fetch.batch", host=home, n=len(batch))
        try:
            outcomes = yield from self.repo._call(home, "get_objects", oids)
        except FailureException as exc:
            self._tracer.finish(span, outcome=type(exc).__name__)
            self.repo._feed_limiter(exc)
            yield from self._batch_failed(batch, exc, issue_epoch, issued_at)
            return
        self._m_latency.observe(self._tracer.finish(span, outcome="ok"))
        self.repo._feed_limiter(None)
        for element, (status, value) in zip(batch, outcomes):
            self._m_fetch_latency.observe(self.world.now - issued_at)
            if status == "ok":
                self._settle_ok(element, value, issue_epoch)
            else:
                self._settle(FetchResult(
                    element, status="gone", fetched_at=self.world.now,
                    issue_epoch=issue_epoch,
                    detail=f"{element.oid} not stored on {home}"))

    def _execute_hedged(self, element: Element, issue_epoch: int,
                        issued_at: float) -> Generator:
        """Tail-latency insurance for singleton batches: race the home's
        authoritative read against the element's replica copies
        (``Repository._hedged_get``).  A replica can win only with a
        live copy (the safe direction), while the home's "removed"
        answer settles the race as gone."""
        ranked = self.planner.rank_replicas(element)
        self._m_calls.value += 1
        self._m_elements.value += 1
        self._m_size.observe(1)
        span = self._tracer.start("fetch.batch", host=element.home,
                                  n=1, hedged=True)
        try:
            value = yield from self.repo._hedged_get(element, ranked)
        except NoSuchObjectError:
            self._tracer.finish(span, outcome="NoSuchObjectError")
            self._m_fetch_latency.observe(self.world.now - issued_at)
            self._settle(FetchResult(
                element, status="gone", fetched_at=self.world.now,
                issue_epoch=issue_epoch,
                detail=f"{element.oid} removed at {element.home}"))
            return
        except FailureException as exc:
            self._tracer.finish(span, outcome=type(exc).__name__)
            self.repo._feed_limiter(exc)
            # Every racer lost to a fault, not to latency: the patient
            # failover sweep takes over.
            yield from self._batch_failed([element], exc, issue_epoch,
                                          issued_at)
            return
        self._m_latency.observe(self._tracer.finish(span, outcome="ok"))
        self.repo._feed_limiter(None)
        self._m_fetch_latency.observe(self.world.now - issued_at)
        self._settle_ok(element, value, issue_epoch)

    def _batch_failed(self, batch: list[Element], exc: FailureException,
                      issue_epoch: int, issued_at: float) -> Generator:
        """Whole-batch transport failure: replica failover, then
        ``unreachable`` for what no copy answered for."""
        remaining = list(batch)
        if self.failover and isinstance(exc, _DIVERTABLE):
            remaining = yield from self._failover(remaining, issue_epoch,
                                                  issued_at)
        for element in remaining:
            self._settle(FetchResult(
                element, status="unreachable", fetched_at=self.world.now,
                issue_epoch=self._epoch, detail=str(exc)))

    def _failover(self, batch: list[Element], issue_epoch: int,
                  issued_at: float) -> Generator[Any, Any, list[Element]]:
        """Closest-first sweep of replica copies, batched per replica
        host.  Replica answers are never authoritative about removal
        (a missing copy is a "miss", not a "gone"), so a success here
        can only restore visibility of a still-live member — the safe
        direction for a weak set, which may omit but never invent."""
        groups: dict[tuple[NodeId, ...], list[Element]] = {}
        for element in batch:
            groups.setdefault(self.planner.rank_replicas(element),
                              []).append(element)
        unresolved: list[Element] = []
        for ranked, elements in groups.items():
            remaining = list(elements)
            for replica in ranked:
                if not remaining:
                    break
                oids = [e.oid for e in remaining]
                span = self._tracer.start("fetch.batch", host=replica,
                                          n=len(oids), failover=True)
                try:
                    outcomes = yield from self.repo._call(
                        replica, "get_objects_replica", oids, max_attempts=1)
                except FailureException as failure:
                    self._tracer.finish(span, outcome=type(failure).__name__)
                    continue
                self._m_latency.observe(
                    self._tracer.finish(span, outcome="ok"))
                still: list[Element] = []
                for element, (status, value) in zip(remaining, outcomes):
                    if status == "ok":
                        self.repo._m.failovers.value += 1
                        self._m_failovers.value += 1
                        self._m_fetch_latency.observe(self.world.now - issued_at)
                        self._settle_ok(element, value, issue_epoch)
                    else:
                        still.append(element)
                remaining = still
            unresolved.extend(remaining)
        return unresolved

    # ------------------------------------------------------------------
    def _settle_ok(self, element: Element, value: Any, issue_epoch: int) -> None:
        value = unwrap(value)  # servers reply in wire Blobs
        if self.repo.cache is not None:
            self.repo.cache.put(("object", element.oid), value, self.world.now)
        self._settle(FetchResult(element, value=value,
                                 fetched_at=self.world.now,
                                 issue_epoch=issue_epoch))

    def _settle(self, result: FetchResult) -> None:
        oid = result.element.oid
        if oid not in self._live:        # delivered meanwhile (stale settle)
            return
        if not result.from_cache and oid not in self._settled:
            self._in_flight -= 1
        self._settled[oid] = result
        self._arrivals.append(oid)
        waiters, self._waiters = self._waiters, []
        for signal in waiters:
            if not signal.fired:
                signal.fire(None)
        self._kick_workers()             # window budget freed

    def _kick_workers(self) -> None:
        idle, self._idle = self._idle, []
        for signal in idle:
            if not signal.fired:
                signal.fire(None)

    def __repr__(self) -> str:
        return (f"FetchPipeline({self.name}, window={self.window}, "
                f"batch={self.batch_size}, live={len(self._live)}, "
                f"fetched={self.fetched}, gone={self.gone})")
