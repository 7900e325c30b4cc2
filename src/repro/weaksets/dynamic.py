"""Figure 6: growing and shrinking set, optimistic — **dynamic sets**.

"The behavior of elements captured in our last specification is the
weakest of the four presented in this paper. … We are currently
implementing the weakest design … Our decision … was based on the
desire to maximize the usability of the system while preserving good
performance and ease of implementation."

The implementation choices mirror that philosophy:

* membership is read from the **nearest reachable host** (primary or
  replica) — cheap, possibly stale;
* candidate elements are validated by fetching from their *home*, which
  is authoritative for existence: a stale replica may still list a
  removed member, but its data object is tombstoned (removal deletes
  the object before the membership entry), so the fetch comes back
  ``NoSuchObjectError`` and the candidate is silently skipped instead of
  being incorrectly yielded;
* failures are handled **optimistically**: when every remaining member
  is unreachable, the iterator does not fail — it sleeps and retries,
  "with the expectation that in a later invocation inaccessible objects
  will become accessible again (because the failure has been repaired
  by that time)".  Figure 6 has no ``signals (failure)`` clause: the
  only exits are yielding and returning.  ``give_up_after`` bounds the
  blocking for benchmark runs that must terminate; leaving it ``None``
  is the faithful spec behaviour.
* before returning, the iterator double-checks with the primary when it
  is reachable, so a stale replica view cannot cause an early return
  that misses recent additions (which Figure 6's "∃ e ∈ s_pre" branch
  forbids).  If the primary is unreachable the best known view decides
  — the honest residual weakness of optimism, measured in E5.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..errors import FailureException
from ..sim.events import Sleep
from ..spec.termination import Failed, Outcome, Returned, Yielded
from ..store.elements import Element
from .base import WeakSet
from .iterator import ElementsIterator

__all__ = ["DynamicIterator", "DynamicSet"]


class DynamicIterator(ElementsIterator):
    """The optimistic iterator CMU shipped for Unix dynamic sets."""

    def __init__(self, *args: Any, retry_interval: float = 0.25,
                 give_up_after: Optional[float] = None,
                 use_cache: bool = False, failover: bool = True,
                 **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.retry_interval = retry_interval
        self.give_up_after = give_up_after
        self.use_cache = use_cache
        #: Try an element's replica copies when its home is unreachable,
        #: before treating it as blocked.  Safe under Figure 6: replicas
        #: can only restore visibility of live members, never resurrect
        #: removed ones (only the home answers "removed" authoritatively).
        self.failover = failover
        # Instance attr shadowing the class default: the pipeline's
        # failover policy is this iterator's failover policy.
        self.pipeline_failover = failover
        self.retries = 0          # cumulative blocked retries (observability)
        # Members learned to be removed (tombstoned at their home).
        # Removed oids never resurrect (a re-add mints a fresh oid), so
        # this memory is safe across invocations.
        self.stale_entries: set[Element] = set()

    def _step(self) -> Generator[Any, Any, Outcome]:
        blocked_since: Optional[float] = None
        forced_view: Optional[frozenset[Element]] = None
        pipe = self._ensure_pipeline(use_cache=self.use_cache)
        while True:
            if not pipe.pending:
                # The pipeline has drained: (re)plan from a fresh view.
                # While it still holds undelivered work we keep consuming
                # instead — no membership re-read per yield.
                if forced_view is not None:
                    view_members, forced_view = forced_view, None
                else:
                    try:
                        view_members = yield from self._best_view()
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
                fresh_remaining = yield from self._fresh_remaining(self.stale_entries)
                if not fresh_remaining:
                    return Returned()
                # The primary knows members our view missed: iterate over
                # the authoritative view next round (no extra replica read).
                forced_view = fresh_remaining
                continue
            # Optimistic blocking: members exist but cannot be reached.
            # Sleeping with the pipeline empty means the next lap re-reads
            # a view and resubmits the blocked members — a fresh attempt.
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

    def _best_view(self) -> Generator[Any, Any, frozenset[Element]]:
        """Membership from the nearest reachable host (optimistic read).

        With no host reachable at all the read raises, and optimism
        means *wait*, not fail: the caller's loop blocks (``_block``)
        and asks again.
        """
        view = yield from self.repo.read_membership(
            self.coll_id, source="nearest", use_cache=self.use_cache)
        return view.members

    def _fresh_remaining(self, stale_entries: set[Element]) -> Generator[Any, Any, frozenset[Element]]:
        """Unyielded members per the primary (empty set on best effort).

        An unreachable primary leaves the decision to the stale view —
        the honest residual weakness of optimism, possibly missing very
        recent additions.
        """
        try:
            fresh = yield from self.repo.read_membership(self.coll_id, source="primary")
        except FailureException:
            return frozenset()
        return fresh.members - self.yielded - stale_entries


class DynamicSet(WeakSet):
    """Figure 6 semantics: no consistency, first-bound — dynamic sets."""

    semantics = "fig6"
    impl_name = "dynamic"
    iterator_cls = DynamicIterator
