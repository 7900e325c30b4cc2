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

Figure 4's constraint is ``true``, so nothing enforces it: the row is
the whole design point.
"""

from __future__ import annotations

from .base import WeakSet

__all__ = ["SnapshotSet"]


class SnapshotSet(WeakSet):
    """Figure 4 semantics: weak consistency, first-vintage."""

    semantics = "fig4"
    impl_name = "snapshot"
