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
ghost protocol (``policy="grow-during-run"``; :class:`GhostRegistration`
is the client's half) — "we can create copies of any deleted objects
and then garbage collect these 'ghost' copies upon termination."
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..errors import FailureException
from .base import WeakSet
from .mechanism import Mechanism

__all__ = ["GrowOnlySet", "PerRunGrowOnlySet", "GhostRegistration"]


class GrowOnlySet(WeakSet):
    """Figure 5 semantics, for collections with ``policy="grow-only"``."""

    semantics = "fig5"
    expected_policy = "grow-only"
    impl_name = "grow-only"


class GhostRegistration(Mechanism):
    """§3.3's enforcement: register the run with every partition, so
    removals become ghosts until it ends.

    Deregistering falls *after* the terminating invocation completes, so
    the ghost purge — the set finally shrinking — lies outside the run's
    [first-state, last-state] window, as §3.3 intends.
    """

    ends_in_window = False
    _token: Optional[str] = None

    def begin(self, iterator) -> Generator[Any, Any, None]:
        self._token = yield from self.repo.begin_iteration(self.coll_id)

    def end(self) -> Generator[Any, Any, None]:
        token, self._token = self._token, None
        if token is not None:
            try:
                yield from self.repo.end_iteration(self.coll_id, token)
            except FailureException:
                pass  # the primary will purge when the next run ends


class PerRunGrowOnlySet(WeakSet):
    """§3.3 semantics, for collections with ``policy="grow-during-run"``."""

    semantics = "fig5-per-run"  # the ghost registration upholds the constraint
    expected_policy = "grow-during-run"
    impl_name = "per-run-grow-only"
    mechanism = GhostRegistration
