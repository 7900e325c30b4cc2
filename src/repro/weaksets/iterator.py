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

Subclasses implement :meth:`_step` — the body of one invocation — in
terms of honest RPC via their :class:`~repro.store.repository.Repository`.
The base class enforces the protocol (no invocation after termination,
no duplicate yields) and drives the optional
:class:`~repro.spec.trace.TraceRecorder` so every run can be checked
against the figure specifications.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..errors import FailureException, IteratorProtocolError
from ..net.address import NodeId
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


class ElementsIterator:
    """Base class: one suspended/resumable iteration over a collection."""

    #: the owning weak set's ``impl_name``; ``WeakSet.elements`` sets it
    impl_name = "elements"

    #: Pop-time validation the variant's pipeline uses (see
    #: :mod:`repro.store.fetchplan`); subclasses override.
    pipeline_validation = "probe"
    #: Whether the variant's pipeline falls back to replica copies on
    #: transport failure at the home.
    pipeline_failover = False
    #: ``False`` = membership-only iteration (bare descriptors, no value
    #: fetch): Figure 1's iterator.
    fetch_values = True

    def __init__(self, repo: Repository, coll_id: str,
                 recorder: Optional[TraceRecorder] = None,
                 fetch_window: int = 8, fetch_batch: int = 4,
                 fetch_max_bytes: Optional[int] = None,
                 fetch_size_hint=None):
        self.repo = repo
        self.coll_id = coll_id
        self.client: NodeId = repo.client
        self.recorder = recorder
        self.yielded: frozenset[Element] = frozenset()
        self.terminated = False
        self.last_outcome: Optional[Outcome] = None
        # Shared fetch engine: every variant drains element values
        # through one batched, pipelined FetchPipeline (window=1,
        # batch=1 reproduces the old serial path exactly).
        self.fetch_window = fetch_window
        self.fetch_batch = fetch_batch
        # Byte-aware coalescing dials, passed through to the pipeline:
        # cap each multi-get's estimated reply bytes (needs a size hint
        # — a constant or a per-element callable — to be effective).
        self.fetch_max_bytes = fetch_max_bytes
        self.fetch_size_hint = fetch_size_hint
        self.pipeline: Optional[FetchPipeline] = None

    # ------------------------------------------------------------------
    def invoke(self) -> Generator[Any, Any, Outcome]:
        """One invocation (first call or resumption).  Sub-generator."""
        if self.terminated:
            raise IteratorProtocolError(
                f"{self.impl_name} over {self.coll_id} was invoked after terminating"
            )
        if self.recorder is not None:
            self.recorder.invocation_started()
        try:
            outcome = yield from self._step()
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
            self.terminated = True
            self._stop_pipeline()
        self.last_outcome = outcome
        if self.recorder is not None:
            self.recorder.invocation_completed(outcome)
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

    # ------------------------------------------------------------------
    def _step(self) -> Generator[Any, Any, Outcome]:
        """The body of one invocation; implemented per design point."""
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------
    def closest_first(self, elements: frozenset[Element]) -> list[Element]:
        """Order candidates by expected latency to their home (then name).

        This is the paper's "fetching 'closer' files first"; unreachable
        homes sort last (infinite estimated latency).
        """
        return order_closest_first(self.repo.net, self.client, elements)

    def _ensure_pipeline(self, *, use_cache: bool = False) -> FetchPipeline:
        """The variant's shared fetch engine, created lazily per run."""
        if self.pipeline is None:
            self.pipeline = FetchPipeline(
                self.repo, use_cache=use_cache,
                window=self.fetch_window, batch_size=self.fetch_batch,
                max_batch_bytes=self.fetch_max_bytes,
                size_hint=self.fetch_size_hint,
                failover=self.pipeline_failover,
                validation=self.pipeline_validation,
                name=f"{self.impl_name}-{self.coll_id}")
            self.pipeline.start()
        return self.pipeline

    def _stop_pipeline(self) -> None:
        if self.pipeline is not None:
            self.pipeline.stop()

    def _yield_reachable(self, remaining: frozenset[Element],
                         unreachable_reason: str) -> Generator[Any, Any, Outcome]:
        """The pessimistic invocation body Figures 4 and 5 share.

        The figures differ only in their basis state (``s_first`` vs
        ``s_pre``), which the caller has already read: ``remaining`` is
        that basis minus ``yielded``.  Nothing left returns; otherwise
        the remainder is (re)submitted — pending elements deduplicate,
        previously failed ones get a fresh per-invocation attempt, and
        under pre-state semantics members added mid-run join here — and
        the first element whose home answers is yielded.  A ``gone``
        answer still yields the descriptor (``value=None``): the home
        answered, so the element is reachable in the basis state.  Only
        when *every* remaining element stays unreachable after one
        in-invocation resubmit does the iterator fail, with
        ``unreachable_reason`` (``{n}`` = size of the remainder).
        """
        if not remaining:
            return Returned()
        if not self.fetch_values:
            return Yielded(self.closest_first(remaining)[0], None)
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
            return Failed(unreachable_reason.format(n=len(remaining)))

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
        return (f"{type(self).__name__}({self.coll_id} from {self.client}, "
                f"{len(self.yielded)} yielded, {state})")
