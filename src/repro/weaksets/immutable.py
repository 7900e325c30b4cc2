"""Figures 1 and 3: iterators over immutable sets.

Figures 1 and 3 share their iteration structure with Figure 4 — the
ensures clauses of Figures 3 and 4 are textually identical; the figures
differ only in the ``constraint`` the *environment* upholds (the set
never mutates).  Accordingly:

* :class:`ImmutableSet` reuses the snapshot iterator against a
  collection whose policy is ``immutable``, and conforms to Figure 3.
* :class:`Figure1Iterator` is the failure-blind variant for Figure 1:
  it yields descriptors straight from the snapshot without testing
  reachability.  In a failure-free world it conforms to Figure 1 (and
  3); under failures it may yield unreachable elements — the exact
  deficiency that motivated adding ``reachable`` to the assertion
  language.
* :class:`PerRunImmutableSet` implements §3.1's relaxation ("mutations
  may occur between different uses of the iterator, but not between
  invocations of any one use") by holding a read lock on the collection
  for the duration of each run — which is why §3.1 warns that "the use
  of mobile (and possibly) disconnected computers may extend the period
  a lock is held indefinitely".
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..spec.termination import Outcome, Yielded
from .base import WeakSet
from .locking import (
    LockClient,
    acquire_collection_locks,
    release_collection_locks,
)
from .snapshot import SnapshotIterator

__all__ = ["ImmutableSet", "Figure1Iterator", "Figure1Set", "PerRunImmutableSet",
           "PerRunImmutableIterator"]


class ImmutableSet(WeakSet):
    """Figure 3 semantics: strong consistency, first-vintage.

    Intended for collections created with ``policy="immutable"`` and
    sealed after population; the constraint clause is then upheld by the
    store itself, and the snapshot iterator's behaviour satisfies
    Figure 3's ensures clause.
    """

    semantics = "fig3"
    expected_policy = "immutable"
    impl_name = "immutable"
    iterator_cls = SnapshotIterator


class Figure1Iterator(SnapshotIterator):
    """Figure 1: failures ignored (yields without reachability checks)."""

    # No reachability check, no failure branch: Figure 1's world has
    # no failures, so e ∈ s_first − yielded is all that is required —
    # which is the snapshot iterator's membership-only mode.
    fetch_values = False


class Figure1Set(WeakSet):
    """Figure 1 semantics (only meaningful in a failure-free world)."""

    semantics = "fig1"
    expected_policy = "immutable"
    impl_name = "figure1"
    iterator_cls = Figure1Iterator


class PerRunImmutableIterator(SnapshotIterator):
    """§3.1 relaxation: read-lock the collection for the run's duration."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._locks: Optional[list[LockClient]] = None

    def _step(self) -> Generator[Any, Any, Outcome]:
        if self._locks is None:
            # One lock per shard for sharded collections, taken in ring
            # order (same order as every other pessimistic client).
            self._locks = yield from acquire_collection_locks(
                self.repo, self.coll_id, "read"
            )
        outcome = yield from super()._step()
        if not isinstance(outcome, Yielded):
            # returns or fails: the run is over either way — release.
            yield from release_collection_locks(self._locks, quiet=True)
        return outcome


class PerRunImmutableSet(WeakSet):
    """§3.1 semantics: immutable during a run, mutable between runs.

    Requires a :class:`~repro.weaksets.locking.LockService` on the
    collection's primary (see :func:`~repro.weaksets.locking.install_lock_service`),
    and writers that go through :class:`~repro.weaksets.strong.StrongSet`
    (or otherwise take the write lock).
    """

    semantics = "fig4"  # ensures clause is Fig 3/4's; constraint is per-run
    impl_name = "per-run-immutable"
    iterator_cls = PerRunImmutableIterator
