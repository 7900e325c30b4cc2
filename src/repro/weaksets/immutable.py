"""Figures 1 and 3: iterators over immutable sets.

Figures 1 and 3 share their iteration structure with Figure 4 — the
ensures clauses of Figures 3 and 4 are textually identical; the figures
differ only in the ``constraint`` the *environment* upholds (the set
never mutates).  Accordingly:

* :class:`ImmutableSet` is Figure 3's row; the store's ``immutable``
  policy upholds the constraint, so no mechanism runs.
* :class:`Figure1Set` is the failure-blind row: it yields descriptors
  straight from the snapshot without testing reachability.  In a
  failure-free world it conforms to Figure 1 (and 3); under failures it
  may yield unreachable elements — the exact deficiency that motivated
  adding ``reachable`` to the assertion language.
* :class:`PerRunImmutableSet` implements §3.1's relaxation ("mutations
  may occur between different uses of the iterator, but not between
  invocations of any one use") by holding a read lock on the collection
  for the duration of each run (:class:`RunLock`) — which is why §3.1
  warns that "the use of mobile (and possibly) disconnected computers
  may extend the period a lock is held indefinitely".
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

from .base import WeakSet
from .locking import (
    LockClient,
    acquire_collection_locks,
    release_collection_locks,
)
from .mechanism import Mechanism

__all__ = ["ImmutableSet", "Figure1Set", "PerRunImmutableSet", "RunLock"]


class ImmutableSet(WeakSet):
    """Figure 3 semantics: strong consistency, first-vintage.

    Intended for collections created with ``policy="immutable"`` and
    sealed after population; the constraint clause is then upheld by the
    store itself, and the first-state row's behaviour satisfies
    Figure 3's ensures clause.
    """

    semantics = "fig3"
    expected_policy = "immutable"
    impl_name = "immutable"


class Figure1Set(WeakSet):
    """Figure 1 semantics (only meaningful in a failure-free world)."""

    semantics = "fig1"
    expected_policy = "immutable"
    impl_name = "figure1"


class RunLock(Mechanism):
    """§3.1's enforcement: read-lock the collection (every shard of it,
    in ring order) for the run."""

    wait_timeout: Optional[float] = None
    _locks: Sequence[LockClient] = ()

    def begin(self, iterator) -> Generator[Any, Any, None]:
        self._locks = yield from acquire_collection_locks(
            self.repo, self.coll_id, "read", wait_timeout=self.wait_timeout)

    def end(self) -> Generator[Any, Any, None]:
        locks, self._locks = self._locks, ()
        yield from release_collection_locks(locks)


class PerRunImmutableSet(WeakSet):
    """§3.1 semantics: immutable during a run, mutable between runs.

    Requires a :class:`~repro.weaksets.locking.LockService` on each of
    the collection's lock nodes (see
    :func:`~repro.weaksets.locking.install_lock_services`), and writers
    that go through :class:`~repro.weaksets.strong.StrongSet` (or
    otherwise take the write locks).
    """

    semantics = "fig3-per-run"  # the run's read locks uphold the constraint
    impl_name = "per-run-immutable"
    mechanism = RunLock
