"""The ``elements`` iterator protocol.

The paper's iterator model: "Like a procedure an iterator is called;
but unlike a procedure, it may suspend its state and later be resumed
(invoked again), continuing from its suspended state. … Eventually,
like a procedure, an iterator may terminate, returning normally or
exceptionally."

:class:`ElementsIterator` realizes that model in the simulation.  Each
call to :meth:`invoke` is one paper-invocation: a simulated
sub-generator that completes with exactly one
:class:`~repro.spec.termination.Outcome` —

* ``Yielded(element, value)``  (the invocation *suspends*),
* ``Returned()``               (the iterator *returns*), or
* ``Failed(reason)``           (the iterator *fails*).

There is one :class:`ElementsIterator` and no subclasses.  It is built
with its **row** — the :class:`~repro.spec.iterspec.IteratorSpec` the
checker judges it against — and its set's **mechanism**
(:mod:`repro.weaksets.mechanism`).  The row's words choose what an
invocation does: ``membership_basis`` whether ``s`` is read once or
every time (:meth:`_basis`); ``guard`` and ``yields`` between the
optimistic loop, the pessimistic body and its no-fetch form
(:meth:`_optimistic`, :meth:`_yield_reachable`); ``exhausted`` whether
the pessimistic body may fail.  The ``constraint`` is the mechanism's to
enforce.  The class enforces the protocol (no invocation after
termination, no duplicate yields), owns the run guard and drives the
optional :class:`~repro.spec.trace.TraceRecorder` so every run can be
checked against the figure specifications.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..errors import FailureException, IteratorProtocolError
from ..sim.events import Sleep
from ..spec.iterspec import REACHABLE, S, IteratorSpec
from ..spec.termination import Failed, Outcome, Returned, Yielded
from ..spec.trace import TraceRecorder
from ..store.elements import Element
from ..store.fetchplan import FetchPipeline, FetchResult, order_closest_first
from ..store.repository import Repository

__all__ = ["ElementsIterator", "DrainResult", "drain_loop"]


class DrainResult:
    """Everything :meth:`ElementsIterator.drain` observed."""

    __slots__ = ("yields", "outcome", "first_yield_at", "finished_at", "started_at")

    def __init__(self, yields: list[Yielded], outcome: Outcome,
                 started_at: float, first_yield_at: Optional[float], finished_at: float):
        self.yields = yields
        self.outcome = outcome
        self.started_at = started_at
        self.first_yield_at = first_yield_at
        self.finished_at = finished_at

    @property
    def elements(self) -> list[Element]:
        return [y.element for y in self.yields]

    @property
    def values(self) -> list[Any]:
        return [y.value for y in self.yields]

    @property
    def failed(self) -> bool:
        return isinstance(self.outcome, Failed)

    @property
    def time_to_first(self) -> Optional[float]:
        if self.first_yield_at is None:
            return None
        return self.first_yield_at - self.started_at

    @property
    def total_time(self) -> float:
        return self.finished_at - self.started_at

    def __repr__(self) -> str:
        return (f"DrainResult({len(self.yields)} yields, {self.outcome}, "
                f"{self.total_time:.3f}s)")


def drain_loop(invoke, now, max_yields: Optional[int] = None
               ) -> Generator[Any, Any, DrainResult]:
    """Invoke to termination (or ``max_yields``) and time it: the one
    drain loop behind every iterator shape (plain, union, query).
    ``invoke`` starts one invocation; ``now`` reads the virtual clock."""
    started_at = now()
    first_yield_at: Optional[float] = None
    yields: list[Yielded] = []
    while True:
        outcome = yield from invoke()
        if not isinstance(outcome, Yielded):
            break
        if first_yield_at is None:
            first_yield_at = now()
        yields.append(outcome)
        if max_yields is not None and len(yields) >= max_yields:
            break
    return DrainResult(yields, outcome, started_at, first_yield_at, now())


#: why a pessimistic run failed, in its basis state's words ({n} = how
#: many members were left)
_UNREACHABLE = {
    "first": "{n} snapshot element(s) unreachable and none yieldable",
    "pre": "{n} member(s) known but unreachable (pessimistic)",
}


class ElementsIterator:
    """One suspended/resumable iteration over a collection."""

    #: the owning weak set's ``impl_name``; ``WeakSet.elements`` sets it
    impl_name = "elements"

    def __init__(self, repo: Repository, coll_id: str, spec: IteratorSpec,
                 mechanism: type, recorder: Optional[TraceRecorder] = None,
                 fetch_window: int = 8, fetch_batch: int = 4,
                 fetch_max_bytes: Optional[int] = None,
                 fetch_size_hint=None, **options: Any):
        self.repo = repo
        self.coll_id = coll_id
        self.client = repo.client
        self.spec = spec
        self.recorder = recorder
        self.yielded: frozenset[Element] = frozenset()
        self.terminated = False
        # Shared fetch engine: every design point drains element values
        # through one batched, pipelined FetchPipeline (window=1,
        # batch=1 reproduces the old serial path exactly), built when
        # first needed with the caller's dials.  The byte-aware pair caps
        # each multi-get's estimated reply bytes (needs a size hint — a
        # constant or a per-element callable — to be effective).  Read
        # when the pipeline is built, so a client with more to say about
        # traversal (dynsets: arrival order, the unordered ablation) adds
        # the pipeline's own keywords here before the first invocation.
        self.fetch_dials: dict[str, Any] = dict(
            window=fetch_window, batch_size=fetch_batch,
            max_batch_bytes=fetch_max_bytes, size_hint=fetch_size_hint)
        self.pipeline: Optional[FetchPipeline] = None
        # -- the row, read once ------------------------------------------
        if spec.guard == REACHABLE and spec.yields == S:
            raise ValueError(f"{spec.spec_id}: no iterator guards on {REACHABLE} "
                             f"and yields from {S} (it may yield what it cannot reach)")
        self._first: Optional[frozenset[Element]] = None   # s_first, once read
        # The body as a plain function: holding its own bound method
        # would make every iterator a reference cycle.
        self._body = ElementsIterator._yield_reachable
        if spec.guard == S and spec.yields == REACHABLE:
            self._body = ElementsIterator._optimistic
            # The blocking rule's two numbers; no other body waits.
            self.retry_interval: float = options.pop("retry_interval", 0.25)
            self.give_up_after: Optional[float] = options.pop("give_up_after", None)
            # The members the run last blocked on: what it could not
            # reach, if giving up is how it ends.
            self.blocked_on: list[Element] = []
        self.retries = 0          # cumulative blocked laps (observability)
        # Members learned to be removed (tombstoned at their home).
        # Removed oids never resurrect (a re-add mints a fresh oid), so
        # this memory is safe across invocations.
        self.stale_entries: set[Element] = set()
        # What is left is the mechanism's: a keyword this design point
        # does not take is a TypeError here.
        self.mechanism = mechanism(repo, coll_id, **options)
        self._begun = False

    # ------------------------------------------------------------------
    def invoke(self) -> Generator[Any, Any, Outcome]:
        """One invocation (first call or resumption).  Sub-generator.

        The run guard is here and nowhere else: the mechanism begins on
        the first invocation and ends once, however the run terminates —
        returns, fails, or a transport failure converted below — on the
        side of ``invocation_completed`` it names.
        """
        if self.terminated:
            raise IteratorProtocolError(
                f"{self.impl_name} over {self.coll_id} was invoked after terminating"
            )
        if self.recorder is not None:
            self.recorder.invocation_started()
        mechanism = self.mechanism
        try:
            if not self._begun:
                self._begun = True
                yield from mechanism.begin(self)
            outcome = yield from self._body(self)
        except FailureException as exc:
            # Uncaught transport failures terminate the iterator with the
            # paper's ``failure`` exception.
            outcome = Failed(str(exc))
        if isinstance(outcome, Yielded):
            if outcome.element in self.yielded:
                raise IteratorProtocolError(
                    f"{self.impl_name} yielded {outcome.element} twice"
                )
            self.yielded = self.yielded | {outcome.element}
        else:
            if mechanism.ends_in_window:
                yield from mechanism.end()
            self.terminated = True
            self._stop_pipeline()
        if self.recorder is not None:
            self.recorder.invocation_completed(outcome)
        if self.terminated and not mechanism.ends_in_window:
            yield from mechanism.end()
        return outcome

    def drain(self, max_yields: Optional[int] = None) -> Generator[Any, Any, DrainResult]:
        """Invoke to termination (or ``max_yields``); gather statistics.

        Each drain is one ``drain`` span (tagged with the variant's
        ``impl_name``) containing every RPC span it caused, and feeds
        the ``drain.*`` metrics — the continuously-measured cost story
        the bench regression gate diffs.
        """
        obs = self.repo.obs
        span = obs.tracer.start("drain", impl=self.impl_name,
                                coll=self.coll_id, client=str(self.client))
        try:
            result = yield from drain_loop(
                self.invoke, lambda: self.repo.world.now, max_yields)
        except BaseException as exc:
            obs.tracer.finish(span, outcome=type(exc).__name__)
            raise
        obs.tracer.finish(span, outcome=type(result.outcome).__name__,
                          yields=len(result.yields))
        self._record_drain_metrics(result)
        return result

    def _record_drain_metrics(self, result: DrainResult) -> None:
        metrics = self.repo.obs.metrics
        metrics.histogram("drain.latency").observe(result.total_time)
        metrics.histogram(f"drain.latency.{self.impl_name}").observe(result.total_time)
        if result.time_to_first is not None:
            metrics.histogram("drain.time_to_first").observe(result.time_to_first)
        metrics.counter("drain.yields").inc(len(result.yields))
        metrics.counter("drain.failed" if result.failed
                        else "drain.completed").inc()

    def abandon(self) -> None:
        """Discard the iterator without terminating it.

        The caller walked away mid-iteration (closed the browser tab).
        Detaches the trace recorder so the world stops feeding it
        snapshots; the partial trace remains checkable as-is.
        """
        if self.recorder is not None:
            self.recorder.abort()
        self.terminated = True
        self._stop_pipeline()

    # -- the bodies a row can name ------------------------------------------
    def _basis(self) -> Generator[Any, Any, frozenset[Element]]:
        """``s`` in the row's basis state.  ``first``: the expensive
        atomic read, once — if it fails the run fails before yielding
        anything; ``pre``: the recurring cost of pre-state semantics."""
        if self._first is not None:
            return self._first
        members = yield from self.mechanism.read()
        if self.spec.membership_basis == "first":
            self._first = members
        return members

    def _optimistic(self) -> Generator[Any, Any, Outcome]:
        """``guard = s``, ``yields = reachable(s)``: while a member is
        known but out of reach the invocation neither fails nor returns
        — it waits (:meth:`_block`) and plans again."""
        blocked_since: Optional[float] = None
        forced_view: Optional[frozenset[Element]] = None
        pipe = self._ensure_pipeline()
        while True:
            if not pipe.pending:
                # The pipeline has drained: (re)plan from a fresh view.
                # While it still holds undelivered work we keep consuming
                # instead — no membership re-read per yield.
                if forced_view is not None:
                    view_members, forced_view = forced_view, None
                else:
                    try:
                        view_members = yield from self._basis()
                    except FailureException:
                        # No membership host reachable: blocked at the
                        # view layer.  Optimism waits here too, on the
                        # same give_up_after budget as blocked fetches.
                        failed, blocked_since = yield from self._block(blocked_since)
                        if failed is not None:
                            return failed
                        continue
                pipe.submit(view_members - self.yielded - self.stale_entries)
            result, unreachable = yield from self._next_from_pipeline()
            if result is not None:
                if result.ok:
                    return Yielded(result.element, result.value)
                # Tombstoned at its home: the member was removed and
                # our view is stale.  Skip — do not yield, do not block.
                self.stale_entries.add(result.element)
                continue
            if not unreachable:
                # Nothing unreachable: every remaining entry (if any) was
                # stale.  Confirm emptiness against the primary before
                # returning, in case this view missed recent additions.
                fresh = yield from self.mechanism.confirm()
                fresh_remaining = fresh - self.yielded - self.stale_entries
                if not fresh_remaining:
                    return Returned()
                # The primary knows members our view missed: iterate over
                # the authoritative view next round (no extra replica read).
                forced_view = fresh_remaining
                continue
            # Optimistic blocking: members exist but cannot be reached.
            # Sleeping with the pipeline empty means the next lap re-reads
            # a view and resubmits the blocked members — a fresh attempt.
            self.blocked_on = unreachable
            failed, blocked_since = yield from self._block(blocked_since)
            if failed is not None:
                return failed

    def _block(self, blocked_since: Optional[float]
               ) -> Generator[Any, Any, tuple[Optional[Failed], Optional[float]]]:
        """One lap of Figure 6's optimistic blocking — the only place the
        rule is written.  Returns ``(failure, blocked_since)``: a
        ``Failed`` outcome when the invocation must stop waiting (the
        client is DISCONNECTED, or this invocation has been blocked for
        ``give_up_after``), else ``None`` after sleeping one
        ``retry_interval``; ``blocked_since`` is when this invocation
        first blocked, threaded back through the caller's loop."""
        if self.repo.disconnected:
            # Fail fast: the network is *known* absent (an explicit client
            # state, not a suspected fault), so optimistic retrying can
            # only burn simulated time — no later invocation can reach
            # anything until reconnect.
            return Failed("client disconnected: offline read failed fast "
                          "instead of retrying until give_up_after"), blocked_since
        now = self.repo.world.now
        if blocked_since is None:
            blocked_since = now
        if (self.give_up_after is not None
                and now - blocked_since >= self.give_up_after):
            return Failed(
                f"gave up after blocking {self.give_up_after}s "
                "(give_up_after escape hatch; Figure 6 proper never fails)"
            ), blocked_since
        self.retries += 1
        yield Sleep(self.retry_interval)
        return None, blocked_since

    # -- shared helpers ---------------------------------------------------
    def closest_first(self, elements: frozenset[Element]) -> list[Element]:
        """Order candidates by expected latency to their home (then name).

        This is the paper's "fetching 'closer' files first"; unreachable
        homes sort last (infinite estimated latency).
        """
        return order_closest_first(self.repo.net, self.client, elements)

    def _ensure_pipeline(self) -> FetchPipeline:
        """The run's fetch engine, created lazily; what it may trust at
        pop time, and whether it may divert to replica copies, is what
        the mechanism's enforcement makes sound."""
        if self.pipeline is None:
            mechanism = self.mechanism
            self.pipeline = FetchPipeline(
                self.repo, use_cache=mechanism.use_cache,
                failover=mechanism.failover,
                validation=mechanism.validation,
                name=f"{self.impl_name}-{self.coll_id}", **self.fetch_dials)
            self.pipeline.start()
        return self.pipeline

    def _stop_pipeline(self) -> None:
        if self.pipeline is not None:
            self.pipeline.stop()

    def _yield_reachable(self) -> Generator[Any, Any, Outcome]:
        """The pessimistic invocation body Figures 1, 3, 4 and 5 share;
        they differ only in their basis state (``s_first`` vs ``s_pre``).

        Nothing left of it returns; otherwise the remainder is
        (re)submitted — pending elements deduplicate, previously failed
        ones get a fresh per-invocation attempt, and under pre-state
        semantics members added mid-run join here — and the first
        element whose home answers is yielded.  A ``gone`` answer still
        yields the descriptor (``value=None``): the home answered, so
        the element is reachable in the basis state — removed since a
        first-state snapshot (Figure 4's "loss of mutations"), or, under
        pre-state, a half-removed zombie (crash mid-remove) or a ghost.
        Only when *every* remaining element stays unreachable after one
        in-invocation resubmit is the guard set used up, and the row's
        ``exhausted`` decides: fail, or return short.
        """
        remaining = (yield from self._basis()) - self.yielded
        if not remaining:
            return Returned()
        if self.spec.yields == S:
            # Figure 1's world has no failures to test for:
            # e ∈ s − yielded is all it requires.
            return Yielded(self.closest_first(remaining)[0], None)
        loaded = self.mechanism.loaded
        if loaded is not None:
            # Fetched whole before the first yield: hand out from memory.
            return Yielded(*loaded.popleft())
        pipe = self._ensure_pipeline()
        pipe.submit(remaining)
        retried = False
        while True:
            result, unreachable = yield from self._next_from_pipeline()
            if result is not None:
                return Yielded(result.element,
                               result.value if result.ok else None)
            if unreachable and not retried:
                # One fresh attempt within this invocation — connectivity
                # may have changed since those fetches were issued.
                retried = True
                pipe.submit(unreachable)
                continue
            if self.spec.allows_failure:
                return Failed(_UNREACHABLE[self.spec.membership_basis]
                              .format(n=len(remaining)))
            return Returned()

    def _next_from_pipeline(
        self,
    ) -> Generator[Any, Any, tuple[Optional[FetchResult], list[Element]]]:
        """Pop pipeline results until something deliverable appears.

        Returns ``(result, unreachable)``: ``result`` is the first ok or
        gone result (``None`` once the pipeline is drained), while
        ``unreachable`` accumulates elements skipped past on the way —
        the caller's retry policy decides what to do with those.
        """
        unreachable: list[Element] = []
        while True:
            result = yield from self.pipeline.next_result()
            if result is None:
                return None, unreachable
            if result.unreachable:
                unreachable.append(result.element)
                continue
            return result, unreachable

    def __repr__(self) -> str:
        state = "terminated" if self.terminated else "active"
        return (f"ElementsIterator({self.spec.spec_id} over {self.coll_id} "
                f"from {self.client}, {len(self.yielded)} yielded, {state})")
