"""Figure 5: growing-only set with pessimistic failure handling.

"Unlike in the previous two specifications, each invocation uses the
current state of s, i.e., the pre-state, not first-state.  If there are
still elements to yield based on the remembered set and the current
state of the set, then we choose a reachable one and yield it.  If
there are no more elements to yield, we terminate.  Otherwise, because
we cannot reach an element that we know is in the set, we fail."

Each invocation therefore re-reads the membership from the **primary**
(the authoritative ``s_pre``) — the recurring cost of pre-state
semantics — and fails pessimistically as soon as every unyielded member
is unreachable.

Because "the set may grow faster than the iterator yields elements from
it, an iterator satisfying this specification may never terminate";
``max_yields`` on :meth:`~repro.weaksets.iterator.ElementsIterator.drain`
is the practical escape hatch the paper alludes to ("in practice this
behavior will not occur if objects are consumed more rapidly than they
are produced").

:class:`PerRunGrowOnlySet` is §3.3's relaxation: arbitrary mutation
between runs, growth-only during a run, enforced by the server-side
ghost protocol (``policy="grow-during-run"``) — "we can create copies
of any deleted objects and then garbage collect these 'ghost' copies
upon termination."
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..errors import FailureException
from ..spec.termination import Outcome
from .base import WeakSet
from .iterator import ElementsIterator

__all__ = ["GrowOnlyIterator", "GrowOnlySet", "PerRunGrowOnlyIterator",
           "PerRunGrowOnlySet"]


class GrowOnlyIterator(ElementsIterator):
    """Pre-state iterator, pessimistic on failure.

    Values drain through the shared :class:`FetchPipeline`
    (``validation="probe"``).  A ``gone`` result here can only be a
    half-removed zombie (crash mid-remove) or a ghost: still a member,
    home answering — so its descriptor is yielded with ``value=None``.
    """

    pipeline_validation = "probe"

    def _read_view(self) -> Generator[Any, Any, frozenset]:
        # s_pre: the authoritative current membership.  An unreachable
        # primary is itself a failure (pessimism all the way down).
        view = yield from self.repo.read_membership(self.coll_id, source="primary")
        return view.members

    def _step(self) -> Generator[Any, Any, Outcome]:
        members = yield from self._read_view()
        # Pre-state semantics: every invocation works from the *current*
        # remainder, so members added mid-run join the pipeline here.
        return (yield from self._yield_reachable(
            members - self.yielded,
            "{n} member(s) known but unreachable (pessimistic)"))


class GrowOnlySet(WeakSet):
    """Figure 5 semantics, for collections with ``policy="grow-only"``."""

    semantics = "fig5"
    expected_policy = "grow-only"
    impl_name = "grow-only"
    iterator_cls = GrowOnlyIterator


class PerRunGrowOnlyIterator(GrowOnlyIterator):
    """§3.3: registers the run so removals become ghosts until it ends."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._token: Optional[str] = None

    def _step(self) -> Generator[Any, Any, Outcome]:
        if self._token is None:
            self._token = yield from self.repo.begin_iteration(self.coll_id)
        return (yield from super()._step())

    def invoke(self) -> Generator[Any, Any, Outcome]:
        outcome = yield from super().invoke()
        # Deregister *after* the terminating invocation completes, so the
        # ghost purge — the set finally shrinking — falls outside the
        # run's [first-state, last-state] window, as §3.3 intends.
        if self.terminated and self._token is not None:
            token, self._token = self._token, None
            try:
                yield from self.repo.end_iteration(self.coll_id, token)
            except FailureException:
                pass  # the primary will purge when the next run ends
        return outcome


class PerRunGrowOnlySet(WeakSet):
    """§3.3 semantics, for collections with ``policy="grow-during-run"``."""

    semantics = "fig5"
    expected_policy = "grow-during-run"
    impl_name = "per-run-grow-only"
    iterator_cls = PerRunGrowOnlyIterator
