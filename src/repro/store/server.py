"""Object servers: the per-node storage service.

Each node runs one :class:`ObjectServer` (service name ``"store"``).
A server stores

* **data objects** — the things elements point at (files, menus,
  ``.face`` bitmaps, catalog entries), and
* **collection state** — for every collection this node is the
  *primary* or a *replica* of: the membership map and a version number.

Collection membership is mutated only at the primary (replicas are
read-only and lazily synchronized, so they can be stale — the paper's
"one node may have more up-to-date information than another; cached data
may be stale").  The primary also enforces the collection's *policy*,
which is the operational face of the paper's ``constraint`` clauses:

=================  ==========================================================
``any``            grows and shrinks freely (Figs 4, 6)
``grow-only``      remove is always rejected (Fig 5's constraint s_i ≤ s_j)
``grow-during-run``  removes while an iteration is registered become
                   *ghosts* — §3.3's "create copies of any deleted objects
                   and then garbage collect these 'ghost' copies upon
                   termination"
``immutable``      no mutation after :meth:`seal` (Figs 1, 3)
=================  ==========================================================

Storage is durable: a crash kills in-flight handlers and makes the node
unreachable, but objects and membership survive recovery (the servers
model file servers, not RAM caches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Iterator, Optional, Sequence

from ..errors import (
    FailureException,
    MutationNotAllowed,
    NoSuchCollectionError,
    NoSuchObjectError,
    ServerBusyFailure,
    SimulationError,
    UnreachableObjectFailure,
    WrongShardFailure,
)
from ..net.address import NodeId
from ..net.wire import Blob, unwrap
from .elements import Element, ObjectId, StoredObject
from .wal import IntentLog, IntentRecord

if TYPE_CHECKING:  # pragma: no cover
    from .sharding import HashRing
    from .world import World

__all__ = ["ObjectServer", "CollectionState", "POLICIES", "erase_step",
           "erase_plan", "batch_add_step"]

POLICIES = ("any", "grow-only", "grow-during-run", "immutable")


def erase_step(element: Element, holder: NodeId) -> str:
    """The WAL step name for deleting ``element``'s copy at ``holder``.

    Namespaced by oid so one record tracks every item's progress.  The
    home delete gets the distinguished base name ``"home-deleted"`` — it
    is the step crash-injection cares about most, being the last remote
    action before the membership pop — and a crash point armed at a bare
    base step fires via the log's suffix matching.
    """
    base = "home-deleted" if holder == element.home else f"deleted:{holder}"
    return f"{element.oid}:{base}"


def erase_plan(record: IntentRecord,
               element: Element) -> Iterator[tuple[NodeId, str]]:
    """The ``(holder, step)`` deletes ``record`` still owes ``element``.

    This is the removal discipline, stated once for the handler and the
    replay: replica copies strictly before the home.  A live replica
    copy must always imply "still a member" (the failover path relies on
    it), so copies disappear before the authoritative home does, and the
    membership entry is popped only after every delete landed.
    """
    for holder in element.replicas + (element.home,):
        step = erase_step(element, holder)
        if not record.done(step):
            yield holder, step


def batch_add_step(element: Element) -> str:
    """Per-item WAL step inside an ``add-batch`` intent."""
    return f"{element.name}:added"


class MemberMap(dict):
    """A membership map (name → element, each element listed under its
    own name) that keeps the three views read from it — the value
    ``s_σ``, the sorted listing, and the part of the value a hash ring
    assigns to one shard — and makes a write pay for the names it wrote.

    Freshness sits on the container, not on a version compare, because
    writes do not move ``CollectionState.version`` in step: a batch add
    writes members and then yields on the WAL before it bumps the
    version, recovery, anti-entropy and handoff write on their own
    schedules, and tests write ``state.members[...]`` directly.  Every
    dict mutator is overridden, so no write site can bypass it:

    * while a ``value()`` or ``owned()`` view is held, a write to one
      name journals the element the name listed before its first write
      since the views were last brought up to date (``None`` for a name
      not listed), and the next read patches every held view as
      ``view.difference(old).union(new)`` — a hash and an ``owner``
      lookup per name written plus one C-level copy, not one of each
      per member.  An owned view no written name belongs to stays the
      same object;
    * the listing is dropped on every write;
    * the bulk mutators (``update``, ``|=``, ``clear``, ``popitem``)
      drop all three views.
    """

    __slots__ = ("_value", "_listing", "_owned", "_journal")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._value: Optional[frozenset[Element]] = None
        self._listing: Optional[tuple[Element, ...]] = None
        self._owned: Optional[
            tuple["HashRing", NodeId, frozenset[Element]]] = None
        #: name → element listed before the views were last patched;
        #: None while no view is held (a write then journals nothing)
        self._journal: Optional[dict[str, Optional[Element]]] = None

    def value(self) -> frozenset[Element]:
        if self._journal:
            self._patch()
        if self._value is None:
            self._value = frozenset(self.values())
            if self._journal is None:
                self._journal = {}
        return self._value

    def listing(self) -> tuple[Element, ...]:
        if self._listing is None:
            self._listing = tuple(sorted(self.values()))
        return self._listing

    def owned(self, ring: "HashRing", shard: NodeId) -> frozenset[Element]:
        """The listed elements whose names ``ring`` assigns to ``shard``
        — this partition's share of a sharded ``s_σ`` (a pre-copied or
        not-yet-dropped entry of a migration is listed, never owned).
        Kept per ring *identity*: a cutover swaps the ring object."""
        if self._journal:
            self._patch()
        view = self._owned
        if view is None or view[0] is not ring or view[1] != shard:
            owner = ring.owner
            view = self._owned = (ring, shard, frozenset(
                [e for name, e in self.items() if owner(name) == shard]))
            if self._journal is None:
                self._journal = {}
        return view[2]

    def _patch(self) -> None:
        """Bring every held view up to date with the journal, and empty it."""
        journal, self._journal = self._journal, {}
        get = self.get
        if self._value is not None:
            self._value = self._value.difference(
                [e for e in journal.values() if e is not None]).union(
                [e for name in journal if (e := get(name)) is not None])
        if self._owned is not None:
            ring, shard, view = self._owned
            owner = ring.owner
            mine = [name for name in journal if owner(name) == shard]
            if mine:
                self._owned = (ring, shard, view.difference(
                    [e for name in mine if (e := journal[name]) is not None]
                ).union([e for name in mine if (e := get(name)) is not None]))

    def _wrote(self, name: str) -> None:
        """Drop the listing, and journal what ``name`` lists if nothing
        has since the views were last patched."""
        self._listing = None
        journal = self._journal
        if journal is not None and name not in journal:
            journal[name] = self.get(name)

    def _drop(self) -> None:
        self._value = self._listing = self._owned = self._journal = None

    # -- every way a dict can be written ------------------------------------
    def __setitem__(self, name, element):
        self._wrote(name)
        super().__setitem__(name, element)

    def __delitem__(self, name):
        self._wrote(name)
        super().__delitem__(name)

    def pop(self, name, *default):
        if name in self:
            self._wrote(name)
        return super().pop(name, *default)

    def setdefault(self, name, default=None):
        if name not in self:
            self._wrote(name)
        return super().setdefault(name, default)

    def __ior__(self, other):
        self.update(other)
        return self

    def popitem(self):
        self._drop()
        return super().popitem()

    def update(self, *args, **kwargs):
        # ``args`` may be a lazy iterable that reads the views half way
        # through: drop them once the whole update has been applied.
        try:
            super().update(*args, **kwargs)
        finally:
            self._drop()

    def clear(self):
        self._drop()
        super().clear()


@dataclass
class CollectionState:
    """One collection as seen by one server (primary or replica)."""

    coll_id: str
    policy: str
    is_primary: bool
    members: MemberMap = field(default_factory=MemberMap)
    ghosts: set[str] = field(default_factory=set)        # names pending removal
    version: int = 0
    sealed: bool = False
    active_iterations: set[str] = field(default_factory=set)
    #: per-member version at which each current member was (re)added —
    #: what anti-entropy diffs against a replica's version.
    member_versions: dict[str, int] = field(default_factory=dict)
    #: removal tombstones: name -> (version of the removal, the element),
    #: shipped to replicas by anti-entropy and scrubbed for orphan copies.
    removed: dict[str, tuple[int, Element]] = field(default_factory=dict)
    #: removals whose holders the scrubber has not yet probed for orphans.
    unverified_removals: set[str] = field(default_factory=set)
    #: bumped when a rebalance drops a migrated range *without* tombstones;
    #: a mirror seeing a new epoch discards its copy and re-pulls from 0
    #: (tombstoning moved members would make the repair scrubber delete
    #: their still-live data objects).
    epoch: int = 0
    #: while a rebalance is cutting over, the target ring: mutations on
    #: names this node is *losing* answer ServerBusyFailure (retry soon,
    #: against the new owner) instead of mutating a doomed range.
    freeze_ring: Optional["HashRing"] = None

    def __post_init__(self) -> None:
        if not isinstance(self.members, MemberMap):
            self.members = MemberMap(self.members)

    def value(self) -> frozenset[Element]:
        """The set's current value (ghosts are still members until
        purged); the same object until ``members`` is next written."""
        return self.members.value()

    def snapshot(self) -> tuple[int, tuple[Element, ...]]:
        return self.version, self.members.listing()

    def forget(self, name: str) -> None:
        """Drop ``name``'s entry and everything keyed on its being listed
        (whether a tombstone replaces it is the caller's decision)."""
        self.members.pop(name, None)
        self.member_versions.pop(name, None)
        self.ghosts.discard(name)

    def tombstone(self, name: str, version: int, element: Element) -> None:
        """Record a removal the scrubber has yet to verify orphan-free."""
        self.removed[name] = (version, element)
        self.unverified_removals.add(name)


class ObjectServer:
    """The ``store`` service hosted on every node."""

    SERVICE = "store"

    #: Brownout table consumed by the bounded executor: when the
    #: admission queue runs deep, a ``list_members`` request is answered
    #: by ``list_members_stale`` — synchronously, from the last
    #: committed snapshot, skipping the queue and the service time.
    #: Degrading freshness instead of availability is *legal* for a
    #: weak set: reads are already allowed to return stale views
    #: (fig. 1 permits value staleness; the reply is tagged so callers
    #: and conformance audits can tell).
    DEGRADED_METHODS = {"list_members": "list_members_stale"}

    def __init__(self, node_id: NodeId, world: "World"):
        self.node_id = node_id
        self.world = world
        self.objects: dict[ObjectId, StoredObject] = {}
        self.collections: dict[str, CollectionState] = {}
        self.wal = IntentLog(node_id, world)

    def on_recover(self) -> None:
        """Node recovery hook: hand pending intents to the RecoveryManager."""
        self.world.recovery.on_node_recover(self)

    # ------------------------------------------------------------------
    # data objects
    # ------------------------------------------------------------------
    def get_object(self, oid: ObjectId) -> Generator[Any, Any, Any]:
        """Fetch a data object.

        The reply is a :class:`~repro.net.wire.Blob` carrying the
        object's declared size, so the transfer cost is charged by the
        wire (link bandwidth + queueing), not as server service time —
        the server only pays its fixed per-request service time.
        """
        yield self.world.service_sleep
        obj = self.objects.get(oid)
        if obj is None or obj.deleted:
            raise NoSuchObjectError(f"{oid} not stored on {self.node_id}")
        return Blob(obj.value, obj.size)

    def get_object_replica(self, oid: ObjectId) -> Generator[Any, Any, Any]:
        """Fetch a *replica copy* of a data object.

        Replicas are never authoritative about removal: a missing or
        tombstoned copy here means only "no usable copy at this node",
        so the caller sees :class:`UnreachableObjectFailure` and may try
        elsewhere.  Only the home's :meth:`get_object` may report the
        object as definitively gone (``NoSuchObjectError``) — the
        distinction the failover path relies on to never invent, and
        never prematurely bury, an element.
        """
        yield self.world.service_sleep
        obj = self.objects.get(oid)
        if obj is None or obj.deleted:
            raise UnreachableObjectFailure(
                f"no live replica copy of {oid} on {self.node_id}"
            )
        return Blob(obj.value, obj.size)

    def get_objects(
        self, oids: Sequence[ObjectId]
    ) -> Generator[Any, Any, tuple[tuple[str, Any], ...]]:
        """Batched multi-get: one service-time charge for the whole
        batch (the bytes are charged on the wire), then a per-oid outcome.

        Unlike :meth:`get_object`, a missing object does not fail the
        call — the batch answers ``("ok", value)`` or ``("gone", None)``
        per oid, so one removed element cannot poison its batchmates.
        All outcomes are evaluated at the same serve instant, which is
        what lets a client treat the whole reply as one membership
        sample.
        """
        return (yield from self._read_batch(oids, "gone"))

    def get_objects_replica(
        self, oids: Sequence[ObjectId]
    ) -> Generator[Any, Any, tuple[tuple[str, Any], ...]]:
        """Batched replica multi-get: ``("ok", value)`` or ``("miss",
        None)`` per oid.  As with :meth:`get_object_replica`, a missing
        copy is never authoritative about removal — "miss" only means
        "no usable copy here, try elsewhere"."""
        return (yield from self._read_batch(oids, "miss"))

    def _read_batch(self, oids: Sequence[ObjectId], missing: str
                    ) -> Generator[Any, Any, tuple[tuple[str, Any], ...]]:
        if not oids:
            return ()
        yield self.world.service_sleep
        outcomes = []
        for oid in oids:
            obj = self.objects.get(oid)
            if obj is None or obj.deleted:
                outcomes.append((missing, None))
            else:
                outcomes.append(("ok", Blob(obj.value, obj.size)))
        return tuple(outcomes)

    def put_object(self, oid: ObjectId, value: Any, size: int = 0) -> Generator[Any, Any, int]:
        # Re-creating a tombstoned object resumes from the tombstone's
        # version: version numbers stay monotonic per oid, so a stale
        # reader can never mistake the reborn object for the old one.
        yield self.world.service_sleep
        return self._store(oid, value, size)

    def put_objects(
        self, entries: Sequence[tuple[ObjectId, Any, int]]
    ) -> Generator[Any, Any, tuple[int, ...]]:
        """Batched multi-put: one service-time charge for the whole
        batch, then each ``(oid, value, size)`` entry is stored exactly
        as :meth:`put_object` would — update in place, or resume the
        version from a tombstone.  Returns the per-oid versions.

        No WAL intent is needed here: unlike a membership batch, the
        stores all land at the same serve instant (nothing yields
        between them), so a crash either loses the whole batch — the
        client sees the failure and cleans up or retries — or none of
        it.  The group-commit machinery guards the *multi-step* batch
        RPCs (:meth:`add_members` / :meth:`remove_members`).
        """
        if not entries:
            return ()
        yield self.world.service_sleep
        versions = []
        for oid, value, size in entries:
            versions.append(self._store(oid, value, size))
        return tuple(versions)

    def _store(self, oid: ObjectId, value: Any, size: int) -> int:
        value = unwrap(value)  # writers ship Blobs so puts cost wire bytes
        existing = self.objects.get(oid)
        if existing is not None and not existing.deleted:
            existing.value = value
            existing.size = size
            existing.version += 1
            return existing.version
        version = existing.version + 1 if existing is not None else 1
        self.objects[oid] = StoredObject(
            oid=oid, value=value, size=size, created_at=self.world.now,
            version=version,
        )
        return version

    def delete_object(self, oid: ObjectId) -> Generator[Any, Any, bool]:
        """Tombstone an object; fetching it afterwards is NoSuchObjectError."""
        yield self.world.service_sleep
        obj = self.objects.get(oid)
        if obj is None or obj.deleted:
            return False
        obj.deleted = True
        return True

    def has_object(self, oid: ObjectId) -> bool:
        obj = self.objects.get(oid)
        return obj is not None and not obj.deleted

    # ------------------------------------------------------------------
    # collections: reads (primary or replica)
    # ------------------------------------------------------------------
    def list_members(self, coll_id: str) -> Generator[Any, Any, tuple[int, tuple[Element, ...]]]:
        """Membership snapshot as (version, members); may be stale here."""
        yield self.world.service_sleep
        return self._coll(coll_id).snapshot()

    def list_members_stale(self, coll_id: str) -> tuple[int, tuple[Element, ...], bool]:
        """Brownout read: last committed snapshot, zero service time.

        Invoked synchronously by the admission layer when this server is
        overloaded (see :attr:`DEGRADED_METHODS`).  The trailing ``True``
        marks the reply as degraded-stale so repositories can surface it
        on the :class:`~repro.store.repository.MembershipView`.
        """
        version, members = self._coll(coll_id).snapshot()
        return version, members, True

    def collection_version(self, coll_id: str) -> int:
        return self._coll(coll_id).version

    def sync_delta(self, coll_id: str, since_version: int) -> Generator[Any, Any, dict]:
        """Anti-entropy pull: everything that changed after ``since_version``.

        Called over RPC by a replica's syncer process
        (:class:`~repro.store.antientropy.AntiEntropySyncer`).  The
        reply carries member additions newer than the replica's version,
        removal tombstones newer than it, and the (unversioned) ghost
        and sealed flags — a version diff, not a bulk copy, so sync
        traffic is proportional to what actually changed.
        """
        yield self.world.service_sleep
        state = self._primary(coll_id)
        if since_version > state.version:
            # The replica claims a future version (it never should — see
            # invariant 3); resend everything rather than nothing.
            since_version = 0
        adds = tuple(
            (name, element, state.member_versions.get(name, state.version))
            for name, element in sorted(state.members.items())
            if state.member_versions.get(name, state.version) > since_version
        )
        removes = tuple(
            (name, version, element)
            for name, (version, element) in sorted(state.removed.items())
            if version > since_version
        )
        return {
            "version": state.version,
            "sealed": state.sealed,
            "ghosts": tuple(sorted(state.ghosts)),
            "adds": adds,
            "removes": removes,
            "epoch": state.epoch,
            "active_iterations": tuple(sorted(state.active_iterations)),
        }

    # ------------------------------------------------------------------
    # collections: mutation (primary only)
    # ------------------------------------------------------------------
    #: retry_after answered while a migrating range is frozen: the
    #: cutover window is a few RPCs long, so retries come back quickly.
    MIGRATION_RETRY_AFTER = 0.05

    def _shard_guard(self, state: CollectionState,
                     names: Sequence[str]) -> None:
        """Reject mutations this node must not apply.

        A mutation is legal here only if this node owns every named key
        under the collection's current placement
        (:class:`WrongShardFailure` otherwise — the client's map is
        stale and must be re-resolved, never retried in place).  While a
        rebalance is cutting over, keys this node is *losing* under
        ``freeze_ring`` answer :class:`ServerBusyFailure` instead: the
        range is quiesced for its final delta, and the retried write
        will land on the new owner right after the ring swap.
        """
        info = self.world.collection_info(state.coll_id)
        for name in names:
            owner = info.owner_of(name)
            if owner != self.node_id:
                raise WrongShardFailure(
                    f"{state.coll_id}:{name!r} is owned by {owner}, "
                    f"not {self.node_id}", owner=owner)
        ring = state.freeze_ring
        if ring is not None:
            for name in names:
                if ring.owner(name) != self.node_id:
                    raise ServerBusyFailure(
                        f"{state.coll_id}:{name!r} is migrating off "
                        f"{self.node_id}",
                        retry_after=self.MIGRATION_RETRY_AFTER)

    def _addable(self, state: CollectionState,
                 elements: Sequence[Element]) -> list[Element]:
        """The one add validation: placement, the seal, name conflicts.

        Everything is checked before anything mutates, so a rejected
        batch changed nothing.  Returns the elements not yet listed (an
        identical existing member is an idempotent re-add and drops out).
        """
        self._shard_guard(state, [e.name for e in elements])
        if state.sealed:
            raise MutationNotAllowed(f"{state.coll_id} is sealed (immutable)")
        fresh: list[Element] = []
        for element in elements:
            existing = state.members.get(element.name)
            if existing is None:
                fresh.append(element)
            elif existing != element:
                raise MutationNotAllowed(
                    f"{state.coll_id} already has a member named "
                    f"{element.name!r}")
        return fresh

    def add_member(self, coll_id: str, element: Element) -> Generator[Any, Any, int]:
        """Register one member: a single local step, so no intent."""
        yield self.world.service_sleep
        state = self._primary(coll_id)
        if self._addable(state, (element,)):
            state.members[element.name] = element
            state.version += 1
            state.member_versions[element.name] = state.version
            self.world._membership_changed(coll_id)
        return state.version

    def add_members(self, coll_id: str,
                    elements: Sequence[Element]) -> Generator[Any, Any, int]:
        """Register a batch of members under one WAL intent (group commit).

        Each accepted element is inserted and then step-marked
        (``"<name>:added"``), so a crash mid-batch leaves an intent
        recovery can finish item-precisely: marked items are skipped,
        unmarked ones re-inserted idempotently.  The version bump is
        deferred to the end and coalesced — the whole batch becomes
        visible to ``sync_delta`` as **one** version jump, which is the
        server-side half of what makes batched writes cheap.
        """
        yield self.world.service_sleep
        state = self._primary(coll_id)
        to_add = self._addable(state, elements)
        if not to_add:
            return state.version
        record = self.wal.append("add-batch", coll_id, tuple(to_add),
                                 origin="add_many")
        record.in_flight = True
        try:
            yield from self.wal.step(record, "begin")
            for element in to_add:
                state.members[element.name] = element
                yield from self.wal.step(record, batch_add_step(element))
            self._finish_add_batch(state, record)
        finally:
            record.in_flight = False
        return state.version

    def _finish_add_batch(self, state: CollectionState,
                          record: IntentRecord) -> None:
        """Final local step of an add batch: one coalesced version bump.

        Idempotent (a resumed handler may race recovery): only elements
        actually present and not yet stamped with a member version are
        finalized; the intent commits either way.  Inserts without a
        ``member_versions`` stamp are still synced correctly meanwhile
        (``sync_delta`` defaults a missing stamp to the current version).
        """
        applied = [e for e in record.elements
                   if state.members.get(e.name) == e
                   and e.name not in state.member_versions]
        if applied:
            state.version += 1
            for element in applied:
                state.member_versions[element.name] = state.version
            self.wal.mark(record, "membership")
            self.wal.commit(record)
            self.world._membership_changed(state.coll_id)
        else:
            self.wal.commit(record)

    def remove_member(self, coll_id: str, element: Element) -> Generator[Any, Any, int]:
        """Remove a member (policy permitting): a batch of one."""
        return self._remove(coll_id, (element,), "remove")

    def remove_members(self, coll_id: str,
                       elements: Sequence[Element]) -> Generator[Any, Any, int]:
        """Remove a batch of members under one WAL intent (group commit)."""
        return self._remove(coll_id, elements, "remove_many")

    def _remove(self, coll_id: str, elements: Sequence[Element],
                origin: str) -> Generator[Any, Any, int]:
        """Validate a removal and filter it down to what must be erased.

        Policy is checked up front; an element that is already gone
        drops out (removal is idempotent), and under ``grow-during-run``
        with an iteration registered it becomes a *ghost* instead —
        §3.3 defers the removal until no iteration is in progress, and
        the member remains visible (the set only grows during a run).
        """
        yield self.world.service_sleep
        state = self._primary(coll_id)
        self._shard_guard(state, [e.name for e in elements])
        if state.policy == "grow-only":
            raise MutationNotAllowed(f"{coll_id} is grow-only; remove rejected")
        if state.sealed or state.policy == "immutable":
            raise MutationNotAllowed(f"{coll_id} is immutable; remove rejected")
        targets: list[Element] = []
        for element in elements:
            if state.members.get(element.name) != element:
                continue
            if state.policy == "grow-during-run" and state.active_iterations:
                state.ghosts.add(element.name)
            else:
                targets.append(element)
        if targets:
            yield from self._erase(state, targets, origin)
        return state.version

    def _erase(self, state: CollectionState, targets: Sequence[Element],
               origin: str) -> Generator:
        """The one erase engine: removals, ghost purges, any batch size.

        Each target's data object dies along :func:`erase_plan` — so
        "object exists at its home" implies "still a member", the
        invariant the optimistic iterator relies on to avoid yielding
        elements stale replicas still list — and only then are the
        memberships popped, under one coalesced version bump.

        The whole sequence is write-ahead logged: the intent lands
        before the first delete, each completed step is marked, and a
        crash at any point leaves a pending record recovery can roll
        forward.  A clean failure (unreachable holder) commits the
        fully-erased prefix, leaves the rest members, and propagates —
        item-precise partial application; removal is idempotent, so the
        client may simply retry.  With no item fully erased the intent
        aborts instead: the client saw the error and membership is
        untouched, so there is nothing to recover.
        """
        record = self.wal.append("erase", state.coll_id, tuple(targets),
                                 origin=origin)
        # While this handler lives, it owns the intent: the scrub daemon
        # skips in-flight records, so a half-done erase is never doubly
        # executed.  A crash kills the handler, whose generator close
        # runs this ``finally`` — the record reverts to plain pending
        # and recovery takes over.
        record.in_flight = True
        try:
            yield from self.wal.step(record, "begin")
            erased: list[Element] = []
            failure: Optional[FailureException] = None
            for element in targets:
                try:
                    for holder, step in erase_plan(record, element):
                        if holder == self.node_id:
                            yield from self.delete_object(element.oid)
                        else:
                            yield from self.world.net.call(
                                self.node_id, holder, self.SERVICE,
                                "delete_object", element.oid)
                        yield from self.wal.step(record, step)
                except FailureException as exc:
                    failure = exc
                    break
                erased.append(element)
            if erased:
                self._finish_erase(state, erased, record)
            else:
                self.wal.abort(record)
            if failure is not None:
                raise failure
        finally:
            record.in_flight = False

    def _finish_erase(self, state: CollectionState,
                      elements: Sequence[Element],
                      record: IntentRecord) -> None:
        """The final, purely local erase step: pop the memberships and
        tombstone them under one coalesced version bump.

        Idempotent (recovery and scrub may race a resumed handler): an
        element is popped only if that exact element is still listed,
        and the intent commits either way.  Every tombstone carries the
        single post-batch version, so a replica syncs the whole group of
        removals as one jump.
        """
        popped = [e for e in elements if state.members.get(e.name) == e]
        if popped:
            state.version += 1
            for element in popped:
                state.forget(element.name)
                state.tombstone(element.name, state.version, element)
            self.wal.mark(record, "membership")
            self.wal.commit(record)
            self.world._membership_changed(state.coll_id)
        else:
            self.wal.commit(record)

    def seal_collection(self, coll_id: str) -> Generator[Any, Any, None]:
        """Freeze an ``immutable`` collection after initial population."""
        yield self.world.service_sleep
        state = self._primary(coll_id)
        record = self.wal.append("seal", coll_id, origin="seal")
        record.in_flight = True
        try:
            yield from self.wal.step(record, "begin")
            state.sealed = True
            self.wal.commit(record)
        finally:
            record.in_flight = False

    # ------------------------------------------------------------------
    # §3.3 iteration registration (ghost protocol)
    # ------------------------------------------------------------------
    def begin_iteration(self, coll_id: str, token: str) -> Generator[Any, Any, None]:
        yield self.world.service_sleep
        self._primary(coll_id).active_iterations.add(token)

    def end_iteration(self, coll_id: str, token: str) -> Generator[Any, Any, int]:
        """Deregister an iteration; purge ghosts when the last one ends."""
        yield self.world.service_sleep
        state = self._primary(coll_id)
        state.active_iterations.discard(token)
        purged = 0
        if not state.active_iterations and state.ghosts:
            for name in sorted(state.ghosts):
                element = state.members.get(name)
                if element is None:
                    continue
                try:
                    yield from self._erase(state, (element,), "purge")
                    purged += 1
                except FailureException:
                    # The ghost's home is unreachable right now; leave it
                    # pending — a later end_iteration will retry the purge.
                    continue
        return purged

    # ------------------------------------------------------------------
    # shard migration (rebalance coordinator RPCs)
    # ------------------------------------------------------------------
    def absorb_handoff(
        self, coll_id: str,
        adds: Sequence[tuple[str, Element]],
        removes: Sequence[tuple[str, Element]] = (),
        ghosts: Sequence[str] = (),
        iterations: Sequence[str] = (),
    ) -> Generator[Any, Any, int]:
        """Absorb migrated registry entries shipped by a rebalance.

        The coordinator pulls the source shard's ``sync_delta``, filters
        it to the keys this node gains under the target ring, and ships
        them here.  Idempotent by construction (keyed upserts), so the
        coordinator may replay the whole handoff after any crash:
        tombstones land first (marked unverified so the scrubber still
        probes their holders), then members, then the ghost marks and
        iteration registrations the §3.3 protocol needs to keep deferring
        removals across the move.  All absorbed entries share one version
        bump — to the collection's mirrors the handoff is one sync jump.
        """
        yield self.world.service_sleep
        state = self._primary(coll_id)
        incoming = state.version + 1
        applied = 0
        for name, element in removes:
            if name in state.removed:
                continue
            if state.members.get(name) == element:
                state.forget(name)
            state.tombstone(name, incoming, element)
            applied += 1
        for name, element in adds:
            if state.members.get(name) == element:
                continue
            state.members[name] = element
            state.member_versions[name] = incoming
            applied += 1
        for name in ghosts:
            if name in state.members:
                state.ghosts.add(name)
        state.active_iterations.update(iterations)
        if applied:
            state.version = incoming
            self.world._membership_changed(coll_id)
        return applied

    def freeze_range(self, coll_id: str, ring: Optional["HashRing"]
                     ) -> Generator[Any, Any, None]:
        """Quiesce the keys this node loses under ``ring`` (the target
        ring of an in-flight rebalance): mutations on them answer
        ``ServerBusyFailure`` until cutover, so the final delta the
        coordinator pulls is provably the last word on the moving range."""
        yield self.world.service_sleep
        state = self._primary(coll_id)
        state.freeze_ring = ring

    def unfreeze_range(self, coll_id: str) -> Generator[Any, Any, None]:
        """Lift a freeze (rebalance aborted and will be retried)."""
        return self.freeze_range(coll_id, None)

    def drop_range(self, coll_id: str,
                   ring: "HashRing") -> Generator[Any, Any, int]:
        """Post-cutover cleanup: forget every entry this node no longer
        owns under ``ring`` (now the collection's current ring).

        Dropped members get **no tombstones** — they are alive at their
        new shard, and a tombstone here would make the repair scrubber
        delete their still-live data objects.  Instead the partition's
        ``epoch`` is bumped, which tells this shard's mirrors (via
        ``sync_delta``) to discard their copy and re-pull from scratch —
        the only sound way to shrink a mirror without tombstones.
        """
        yield self.world.service_sleep
        state = self._primary(coll_id)
        dropped = 0
        for name in [n for n in state.members
                     if ring.owner(n) != self.node_id]:
            state.forget(name)
            dropped += 1
        for name in [n for n in state.removed
                     if ring.owner(n) != self.node_id]:
            state.removed.pop(name, None)
            state.unverified_removals.discard(name)
        state.freeze_ring = None
        if dropped:
            state.version += 1
            state.epoch += 1
            self.world._membership_changed(coll_id)
        return dropped

    def pending_intents(self, coll_id: str) -> Generator[Any, Any, int]:
        """How many WAL intents for ``coll_id`` are still pending here —
        the coordinator's quiescence probe before freezing a range."""
        yield self.world.service_sleep
        return sum(1 for record in self.wal.pending()
                   if record.coll_id == coll_id)

    # ------------------------------------------------------------------
    # registration plumbing (called by World, not over RPC)
    # ------------------------------------------------------------------
    def host_collection(self, coll_id: str, policy: str, is_primary: bool) -> CollectionState:
        if policy not in POLICIES:
            raise SimulationError(f"unknown policy {policy!r}; pick one of {POLICIES}")
        if coll_id in self.collections:
            raise SimulationError(f"{self.node_id} already hosts {coll_id!r}")
        state = CollectionState(coll_id=coll_id, policy=policy, is_primary=is_primary)
        self.collections[coll_id] = state
        return state

    def store_direct(self, element: Element, value: Any, size: int = 0) -> None:
        """God-mode seeding used during world setup (no RPC cost)."""
        self.objects[element.oid] = StoredObject(
            oid=element.oid, value=value, size=size, created_at=self.world.now
        )

    def _coll(self, coll_id: str) -> CollectionState:
        state = self.collections.get(coll_id)
        if state is None:
            raise NoSuchCollectionError(f"{coll_id!r} not hosted on {self.node_id}")
        return state

    def _primary(self, coll_id: str) -> CollectionState:
        state = self._coll(coll_id)
        if not state.is_primary:
            raise SimulationError(
                f"{self.node_id} is a replica of {coll_id!r}; mutations go to the primary"
            )
        return state

    def __repr__(self) -> str:
        return (f"ObjectServer({self.node_id}, objects={len(self.objects)}, "
                f"collections={sorted(self.collections)})")
