"""The computation model: states, snapshots, and invocation records.

The paper models a computation as ``σ₀ S₁ σ₁ … σₙ`` — alternating
states and atomic transitions — and indexes object values by state
(``x_σ``).  Our implementations are not atomic (one paper-invocation
spans several RPCs of simulated time), so the trace records, for each
invocation, *every* ground-truth state the world passed through during
the invocation window.  The checker then asks whether **some** state in
the window makes the invocation satisfy the ensures clause — the same
move linearizability checkers make when mapping overlapping operations
onto an atomic specification.

A :class:`StateSnapshot` captures what the assertion language can talk
about at one state σ:

* ``members`` — the set's value ``s_σ``;
* ``reachable_nodes`` — which nodes the observing client can currently
  reach;
* ``live_replicas`` — which of those nodes hold a live replica copy of
  a member whose home is *not* among them.

From the two, ``reachable(x_σ)`` is computed for any member set by the
rule the world's ground truth (``World.reachable_of``) follows too: an
element is accessible iff its home is reachable, or a reachable node
holds a live copy of its data.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net.address import NodeId
from ..store.elements import Element, ObjectId
from .termination import Outcome

__all__ = ["StateSnapshot", "InvocationRecord"]


@dataclass(frozen=True)
class StateSnapshot:
    """Ground truth at one state σ, as seen by one observer."""

    time: float
    members: frozenset[Element]
    reachable_nodes: frozenset[NodeId]
    #: (node, oid) for each reachable node holding a live replica copy of
    #: a member whose home is unreachable; empty while every home answers
    live_replicas: frozenset[tuple[NodeId, ObjectId]] = frozenset()

    def reachable_of(self, members: frozenset[Element]) -> frozenset[Element]:
        """The paper's ``reachable``: accessible subset of ``members``."""
        nodes, live = self.reachable_nodes, self.live_replicas
        return frozenset(
            e for e in members
            if e.home in nodes
            or (live and any((loc, e.oid) in live for loc in e.replicas)))


@dataclass
class InvocationRecord:
    """One invocation of the ``elements`` iterator, with its window.

    ``yielded_pre`` is the history object's value when the invocation
    began (``yielded_pre`` in the specs); ``yielded_post`` its value
    after the outcome.  ``snapshots`` are the candidate pre-states σ
    sampled over the invocation window (at least two: entry and exit).
    """

    index: int
    t_invoke: float
    t_complete: float
    yielded_pre: frozenset[Element]
    yielded_post: frozenset[Element]
    outcome: Outcome
    snapshots: tuple[StateSnapshot, ...]

    @property
    def entry_snapshot(self) -> StateSnapshot:
        return self.snapshots[0]

    @property
    def exit_snapshot(self) -> StateSnapshot:
        return self.snapshots[-1]

    def __repr__(self) -> str:
        return (f"InvocationRecord(#{self.index}, t=[{self.t_invoke:.3f},"
                f"{self.t_complete:.3f}], {self.outcome}, "
                f"|yielded|={len(self.yielded_pre)}->{len(self.yielded_post)}, "
                f"{len(self.snapshots)} snapshots)")
