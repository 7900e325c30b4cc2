"""Recording iterator executions as checkable traces.

The :class:`TraceRecorder` is the bridge between an *implementation*
(which runs in simulated time, making RPCs) and the *specification
checker* (which reasons over the paper's atomic state model).  The
weak-set iterator machinery calls :meth:`TraceRecorder.invocation_started`
/ :meth:`invocation_completed` around each invocation; in between, the
recorder listens for world changes, building the invocation's
candidate-state window (see :mod:`repro.spec.state`).

Ground truth is asked at both brackets and at every announced change,
but only what can have moved is re-derived.  ``s_σ``
(``World.true_members``) and the observer's reachable nodes (the
transport's ``reachable_view``) are objects their owners keep until a
write, or a connectivity or liveness change, so an unchanged part costs
an identity test; the replicated members are re-scanned only when
``s_σ`` is a new object, and the live replica copies — which can die
unannounced — are looked for at every sample, but only while some
replicated home is out of reach.  A completion or change sample whose
three parts are the last snapshot's own objects builds nothing; an
invocation's entry state is always one new snapshot stamped
``t_invoke``, sharing the last snapshot's sets where they stand.

The recorder holds the God's-eye :class:`~repro.store.world.World`
reference.  Implementations never see it — they only trigger the
bracketing calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import IteratorProtocolError, SpecificationError
from ..net.address import NodeId
from ..store.elements import Element, ObjectId
from ..store.world import World
from .state import InvocationRecord, StateSnapshot
from .termination import Failed, Outcome, Yielded

__all__ = ["IterationTrace", "TraceRecorder"]


#: the live replica copies while every replicated home answers
_NO_COPIES: frozenset[tuple[NodeId, ObjectId]] = frozenset()


def _same_state(a: StateSnapshot, b: StateSnapshot) -> bool:
    """Equal up to time: the assertion-relevant content is unchanged."""
    return ((a.members is b.members or a.members == b.members)
            and (a.reachable_nodes is b.reachable_nodes
                 or a.reachable_nodes == b.reachable_nodes)
            and (a.live_replicas is b.live_replicas
                 or a.live_replicas == b.live_replicas))


@dataclass
class IterationTrace:
    """The full observable history of one use of the ``elements`` iterator."""

    coll_id: str
    client: NodeId
    impl_name: str = ""
    invocations: list[InvocationRecord] = field(default_factory=list)
    first_candidates: tuple[StateSnapshot, ...] = ()

    @property
    def terminated(self) -> bool:
        if not self.invocations:
            return False
        return not self.invocations[-1].outcome.suspends

    @property
    def failed(self) -> bool:
        return bool(self.invocations) and isinstance(self.invocations[-1].outcome, Failed)

    @property
    def yielded_last(self) -> frozenset[Element]:
        """The history object's final value (paper: yielded_last)."""
        if not self.invocations:
            return frozenset()
        return self.invocations[-1].yielded_post

    def yielded_elements(self) -> list[Element]:
        """Elements in yield order."""
        return [
            inv.outcome.element
            for inv in self.invocations
            if isinstance(inv.outcome, Yielded)
        ]

    @property
    def t_first(self) -> Optional[float]:
        return self.invocations[0].t_invoke if self.invocations else None

    @property
    def t_last(self) -> Optional[float]:
        return self.invocations[-1].t_complete if self.invocations else None

    def window(self) -> Optional[tuple[float, float]]:
        """[first-state time, last-state time] of this iterator use."""
        if not self.invocations:
            return None
        return (self.invocations[0].t_invoke, self.invocations[-1].t_complete)

    def __repr__(self) -> str:
        status = "terminated" if self.terminated else "suspended"
        return (f"IterationTrace({self.impl_name or '?'} over {self.coll_id} "
                f"from {self.client}: {len(self.invocations)} invocations, {status})")


class TraceRecorder:
    """Builds an :class:`IterationTrace` from bracketing calls."""

    def __init__(self, world: World, coll_id: str, client: NodeId, impl_name: str = ""):
        self.world = world
        self.trace = IterationTrace(coll_id=coll_id, client=client, impl_name=impl_name)
        self._yielded: frozenset[Element] = frozenset()  # `remembers yielded`
        self._open = False
        self._t_invoke = 0.0
        self._snapshots: list[StateSnapshot] = []
        self._unsubscribe: Optional[Callable[[], None]] = None
        # Every replicated member this trace has seen (s_first may name
        # members since removed), by home; re-scanned only when the world
        # hands back a new s_σ object.
        self._scanned: Optional[frozenset[Element]] = None
        self._replicated: dict[NodeId, set[Element]] = {}
        # The replicated homes out of reach, for the reachable-node view
        # they were worked out against; None when the homes must be
        # looked at again.
        self._away_from: Optional[frozenset[NodeId]] = None
        self._away: list[NodeId] = []

    # ------------------------------------------------------------------
    @property
    def yielded(self) -> frozenset[Element]:
        """Current value of the ``remembers yielded`` history object."""
        return self._yielded

    def invocation_started(self) -> None:
        if self._open:
            raise IteratorProtocolError("invocation started while one is open")
        if self.trace.terminated:
            raise IteratorProtocolError("iterator already terminated")
        self._open = True
        self._t_invoke = now = self.world.now
        self._snapshots = [StateSnapshot(now, *self._state())]
        self._unsubscribe = self.world.on_change(self._on_change)

    def invocation_completed(self, outcome: Outcome) -> InvocationRecord:
        if not self._open:
            raise IteratorProtocolError("invocation completed but none is open")
        self._open = False
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        self._on_change()
        yielded_pre = self._yielded
        if isinstance(outcome, Yielded):
            if outcome.element in self._yielded:
                raise SpecificationError(
                    f"iterator yielded {outcome.element} twice (duplicate yield "
                    "violates the remembers-yielded protocol)"
                )
            self._yielded = self._yielded | {outcome.element}
        record = InvocationRecord(
            index=len(self.trace.invocations),
            t_invoke=self._t_invoke,
            t_complete=self.world.now,
            yielded_pre=yielded_pre,
            yielded_post=self._yielded,
            outcome=outcome,
            snapshots=tuple(self._snapshots),
        )
        self.trace.invocations.append(record)
        if record.index == 0:
            # Candidate first-states: the checker fixes s_first as one of
            # the states the world passed through during invocation 0.
            self.trace.first_candidates = record.snapshots
        return record

    def abort(self) -> None:
        """Stop listening (iterator discarded without terminating)."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        self._open = False

    # ------------------------------------------------------------------
    def _on_change(self) -> None:
        """Sample now; keep the sample only if the state moved."""
        last = self._snapshots[-1]
        members, nodes, live = self._state()
        if (members is last.members and nodes is last.reachable_nodes
                and live is last.live_replicas):
            return
        snap = StateSnapshot(self.world.now, members, nodes, live)
        if not _same_state(last, snap):
            self._snapshots.append(snap)

    def _state(self) -> tuple[frozenset[Element], frozenset[NodeId],
                              frozenset[tuple[NodeId, ObjectId]]]:
        """Ground truth now, as (s_σ, reachable nodes, live replica
        copies) — each part the last snapshot's own object while it
        has not moved.

        s_σ and the reachable nodes are objects their owners keep until
        a write or a connectivity / liveness change.  A replica copy can
        die unannounced, so the live copies are looked for at every
        sample — but only while some replicated home is out of reach."""
        world = self.world
        members = world.true_members(self.trace.coll_id)
        if members is not self._scanned:
            self._scanned = members
            for e in members:
                if e.replicas:
                    self._replicated.setdefault(e.home, set()).add(e)
            self._away_from = None
        nodes = world.net.transport.reachable_view(self.trace.client)
        if nodes is not self._away_from:
            self._away_from = nodes
            self._away = [home for home in self._replicated
                          if home not in nodes]
        if not self._away:
            return members, nodes, _NO_COPIES
        # Only a member whose home is out of reach asks its replica
        # hosts whether they still hold the object.
        live = frozenset(
            (loc, e.oid) for home in self._away
            for e in self._replicated[home] for loc in e.replicas
            if loc in nodes and (server := world.servers.get(loc)) is not None
            and server.has_object(e.oid))
        if self._snapshots and live == (last := self._snapshots[-1].live_replicas):
            return members, nodes, last
        return members, nodes, live
