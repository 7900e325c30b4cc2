"""Per-server write-ahead intent logs.

The servers are durable (objects and membership survive a crash), but
multi-step mutations are not atomic: ``ObjectServer._erase`` deletes
replica copies, then the home object, then pops the membership entry —
and a crash between any two steps used to leave the collection
silently inconsistent (a member with no live home object, or a live
copy of an element nobody lists).  The intent log closes that window
the way a file server would: the primary *logs the intent* before
executing, marks each completed step, and commits only once the final
local step lands.  Recovery (:mod:`repro.store.recovery`) rolls pending
intents forward; completed steps are never re-done, incomplete ones are
idempotent re-deletes.

The log also doubles as the crash-*injection* surface: a test or the
:class:`~repro.net.failures.FaultInjector` can *arm* a one-shot crash
point at a named step (``"begin"``, ``"deleted:<node>"``,
``"home-deleted"``, ``"added"``), and the node crashes exactly when its
next intent reaches that step for any item — deterministic
crash-mid-operation, something wall-clock fault injection can only
approximate.

Intents are in-memory Python objects on the server (which models a
durable disk log); "disabled" WAL (``World(recovery_enabled=False)``)
still marks steps — so armed crash points fire either way — but retains
nothing, which is exactly the ablation E18 measures: the same crashes,
with and without the recovery protocol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Optional

from ..net.address import NodeId
from ..sim.events import Signal, Wait
from .elements import Element

if TYPE_CHECKING:  # pragma: no cover
    from .world import World

__all__ = ["IntentRecord", "IntentLog", "PENDING", "APPLIED", "ABORTED"]

PENDING = "pending"
APPLIED = "applied"
ABORTED = "aborted"


@dataclass
class IntentRecord:
    """One logged multi-step mutation on one server.

    There is one record shape: a single mutation is a batch of one.
    ``steps`` records completed step names in order — ``"begin"``,
    then per-item steps namespaced ``"<item>:<base-step>"``, then
    ``"membership"``; a step that is in the list genuinely happened
    (the mark lands before any crash point fires), so recovery can skip
    it and re-execute only the rest.
    """

    intent_id: int
    kind: str                       # "erase" | "add-batch" | "seal"
    origin: str                     # "remove" | "remove_many" | "purge" | "scrub" | ...
    coll_id: str
    #: every element this record covers (group commit); empty for "seal".
    elements: tuple[Element, ...] = ()
    status: str = PENDING
    steps: list[str] = field(default_factory=list)
    logged_at: float = 0.0
    settled_at: Optional[float] = None
    in_flight: bool = False         # a replay/scrub pass is working on it

    def done(self, step: str) -> bool:
        return step in self.steps

    def __repr__(self) -> str:
        what = ",".join(e.name for e in self.elements) or self.coll_id
        return (f"Intent#{self.intent_id}({self.kind}/{self.origin} {what!r}, "
                f"{self.status}, steps={self.steps})")


class IntentLog:
    """The write-ahead intent log of one :class:`ObjectServer`."""

    def __init__(self, node_id: NodeId, world: "World"):
        self.node_id = node_id
        self.world = world
        self.records: list[IntentRecord] = []
        self._ids = itertools.count(1)
        self._armed: list[tuple[str, Callable[[], None]]] = []
        metrics = world.kernel.obs.metrics
        self._m_intents = metrics.counter("wal.intents")
        self._m_commits = metrics.counter("wal.commits")
        self._m_aborts = metrics.counter("wal.aborts")
        self._m_crash_points = metrics.counter("wal.crash_points")

    # -- logging ----------------------------------------------------------
    def append(self, kind: str, coll_id: str,
               elements: tuple[Element, ...] = (), *,
               origin: str) -> IntentRecord:
        """Log an intent *before* its first step executes."""
        record = IntentRecord(
            intent_id=next(self._ids), kind=kind, origin=origin,
            coll_id=coll_id, elements=tuple(elements),
            logged_at=self.world.now,
        )
        if self.world.recovery_enabled:
            self.records.append(record)
            self._m_intents.inc()
        return record

    def mark(self, record: IntentRecord, step: str) -> None:
        """Record a completed step (no crash point — used by recovery)."""
        if step not in record.steps:
            record.steps.append(step)

    def step(self, record: IntentRecord, step: str) -> Generator:
        """Record a completed step, then honour any armed crash point.

        The mark lands first, so a crash at step S always leaves S in
        the record — "logged" and "happened" cannot disagree.  An armed
        crash point crashes this node via ``kernel.call_soon`` while the
        handler parks on a never-fired signal; the crash kills the
        parked handler (in-flight handlers die on crash), freezing the
        intent exactly at this step.  Only node-tracked handler
        processes may hit crash points — recovery/scrub use :meth:`mark`.
        """
        self.mark(record, step)
        trigger = self._consume_armed(step)
        if trigger is None:
            return
        self._m_crash_points.inc()
        self.world.kernel.call_soon(trigger)
        # Park until the crash lands; the kill never resumes us.
        yield Wait(Signal(name=f"crash-point:{self.node_id}:{step}"))

    def commit(self, record: IntentRecord) -> None:
        if record.status is not APPLIED:
            record.status = APPLIED
            record.settled_at = self.world.now
            self._m_commits.inc()

    def abort(self, record: IntentRecord) -> None:
        """The operation failed cleanly (e.g. a holder was unreachable):
        nothing irreversible happened, the client saw the failure, and
        membership is intact — there is nothing to roll forward."""
        if record.status is PENDING:
            record.status = ABORTED
            record.settled_at = self.world.now
            self._m_aborts.inc()

    def pending(self) -> list[IntentRecord]:
        return [r for r in self.records if r.status is PENDING]

    # -- crash points -----------------------------------------------------
    def arm_crash(self, step: str, trigger: Optional[Callable[[], None]] = None) -> None:
        """Arm a one-shot crash point at ``step``.

        ``trigger`` defaults to crashing this node; a custom trigger
        (e.g. the fault injector's crash-then-recover) runs instead, and
        must crash this node — the interrupted handler stays parked
        until the crash kills it.
        """
        self._armed.append(
            (step, trigger if trigger is not None else self._crash_self))

    def _crash_self(self) -> None:
        self.world.net.crash(self.node_id)

    def armed(self) -> list[str]:
        return [step for step, _ in self._armed]

    def _consume_armed(self, step: str):
        for i, (armed_step, trigger) in enumerate(self._armed):
            if self._step_matches(armed_step, step):
                del self._armed[i]
                return trigger
        return None

    @staticmethod
    def _step_matches(armed: str, step: str) -> bool:
        """Exact match, or a per-item step's base name.

        Per-item steps are namespaced ``"<item>:<base-step>"`` (e.g.
        ``"oid-7:home-deleted"``, ``"m0003:added"``), so arming the bare
        base step — the only name a fault plan can know ahead of time —
        fires on any item of any intent that reaches it.
        """
        return armed == step or step.endswith(":" + armed)

    def __repr__(self) -> str:
        return (f"IntentLog({self.node_id}, {len(self.records)} records, "
                f"{len(self.pending())} pending)")

