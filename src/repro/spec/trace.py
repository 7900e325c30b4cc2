"""Recording iterator executions as checkable traces.

The :class:`TraceRecorder` is the bridge between an *implementation*
(which runs in simulated time, making RPCs) and the *specification
checker* (which reasons over the paper's atomic state model).  The
weak-set iterator machinery calls :meth:`TraceRecorder.invocation_started`
/ :meth:`invocation_completed` around each invocation; in between, the
recorder listens for world changes and samples ground truth at every
one, building the invocation's candidate-state window (see
:mod:`repro.spec.state`).

The recorder holds the God's-eye :class:`~repro.store.world.World`
reference.  Implementations never see it — they only trigger the
bracketing calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import IteratorProtocolError, SpecificationError
from ..net.address import NodeId
from ..store.elements import Element
from ..store.world import World
from .state import InvocationRecord, StateSnapshot
from .termination import Failed, Outcome, Yielded

__all__ = ["IterationTrace", "TraceRecorder"]


def _same_state(a: StateSnapshot, b: StateSnapshot) -> bool:
    """Equal up to time: the assertion-relevant content is unchanged."""
    return (a.members == b.members and a.reachable_nodes == b.reachable_nodes
            and a.live_replicas == b.live_replicas)


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
        self._t_invoke = self.world.now
        self._snapshots = [self._sample()]
        self._unsubscribe = self.world.on_change(self._on_change)

    def invocation_completed(self, outcome: Outcome) -> InvocationRecord:
        if not self._open:
            raise IteratorProtocolError("invocation completed but none is open")
        self._open = False
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        final = self._sample()
        if not self._snapshots or not _same_state(self._snapshots[-1], final):
            self._snapshots.append(final)
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
        snap = self._sample()
        if self._snapshots and _same_state(self._snapshots[-1], snap):
            return
        self._snapshots.append(snap)

    def _sample(self) -> StateSnapshot:
        world = self.world
        members = world.true_members(self.trace.coll_id)
        if members is not self._scanned:
            self._scanned = members
            for e in members:
                if e.replicas:
                    self._replicated.setdefault(e.home, set()).add(e)
        nodes = frozenset(world.net.reachable_from(self.trace.client))
        # Only a member whose home is out of reach asks its replica
        # hosts whether they still hold the object.
        live = frozenset(
            (loc, e.oid) for home in self._replicated.keys() - nodes
            for e in self._replicated[home] for loc in e.replicas
            if loc in nodes and (server := world.servers.get(loc)) is not None
            and server.has_object(e.oid))
        return StateSnapshot(world.now, members, nodes, live)
