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

from typing import Any, Generator

from ..store.elements import Element
from .base import WeakSet
from .mechanism import Mechanism

__all__ = ["DynamicSet", "NearestHost"]


class NearestHost(Mechanism):
    """Nothing to enforce, so nothing to pay for: the optimistic read
    (optionally through the client cache) and replica ``failover``."""

    def __init__(self, *args: Any, use_cache: bool = False,
                 failover: bool = True, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.use_cache = use_cache
        # Try an element's replica copies when its home is unreachable,
        # before treating it as blocked.  Safe under Figure 6: replicas
        # can only restore visibility of live members, never resurrect
        # removed ones (only the home answers "removed" authoritatively).
        self.failover = failover

    def read(self) -> Generator[Any, Any, frozenset[Element]]:
        view = yield from self.repo.read_membership(
            self.coll_id, source="nearest", use_cache=self.use_cache)
        return view.members


class DynamicSet(WeakSet):
    """Figure 6 semantics: no consistency, first-bound — dynamic sets."""

    semantics = "fig6"
    impl_name = "dynamic"
    mechanism = NearestHost
