"""Figure 4: mutable set with loss of mutations (first-state snapshot).

"The iterator will yield only those elements of s as it appears the
first time the iterator is called. … it still assumes that the set can
be obtained in one atomic action (to get a snapshot of s in the
first-state), and distributed atomic actions are extremely expensive in
practice."

The implementation takes that expensive atomic snapshot honestly: the
first invocation reads the membership from the **primary** (one RPC ==
one atomic action in our model; a stale replica would not be the
first-state value and would break conformance).  Subsequent invocations
yield elements of the snapshot, closest-first, failing pessimistically
only when *every* remaining element is unreachable.

A member removed mid-run is still yielded (descriptor with
``value=None``): that is precisely the "loss of mutations" the figure's
title announces, and Figure 4 *requires* it — the element is still in
``s_first`` and its home still answers, so it is in
``reachable(s_first)``.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..spec.termination import Outcome
from ..store.elements import Element
from .base import WeakSet
from .iterator import ElementsIterator

__all__ = ["SnapshotIterator", "SnapshotSet"]


class SnapshotIterator(ElementsIterator):
    """Iterator over the set's first-state value.

    Values are drained through the shared :class:`FetchPipeline`
    (``validation="probe"``: results buffered across a world change are
    re-validated at the home before being trusted).  A ``gone`` result —
    removed since the snapshot — is still *yielded* (descriptor with
    ``value=None``): its home answered, so it is in
    ``reachable(s_first)``, and Figure 4 says lost mutations may show.
    """

    pipeline_validation = "probe"

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.snapshot: Optional[frozenset[Element]] = None

    def _step(self) -> Generator[Any, Any, Outcome]:
        if self.snapshot is None:
            # The atomic first-state snapshot.  If the primary is
            # unreachable, the FailureException propagates and the
            # iterator fails before yielding anything.
            view = yield from self.repo.read_membership(self.coll_id, source="primary")
            self.snapshot = view.members
        return (yield from self._yield_reachable(
            self.snapshot - self.yielded,
            "{n} snapshot element(s) unreachable and none yieldable"))


class SnapshotSet(WeakSet):
    """Figure 4 semantics: weak consistency, first-vintage."""

    semantics = "fig4"
    impl_name = "snapshot"
    iterator_cls = SnapshotIterator
