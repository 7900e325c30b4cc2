"""Disconnected operation: offline reads, a write-back outbox, and
reconnect reconciliation.

The paper's target environment is a mobile workstation on a wide-area
file system — the setting in which ``reachable(x)`` earns its keep.
This module makes *planned, long-lived* disconnection a first-class
mode, not just a transient fault:

:class:`OfflineClient`
    One client's disconnected-operation controller for one collection.
    ``disconnect()`` moves it to DISCONNECTED state and isolates the
    node in the partition overlay (the traveling laptop); while
    offline, every attached :class:`Repository` fails RPC fast with
    :class:`~repro.errors.DisconnectedError` and serves reads stale
    from the :class:`~repro.store.cache.ClientCache` with staleness
    accounted for (``Repository._local_answer``).  Mutations queue into
    the outbox instead of touching the network.

:class:`Outbox`
    The durable write-back queue: one :class:`OutboxEntry` per queued
    ``add``/``remove``, modeled like the server's
    :class:`~repro.store.wal.IntentLog` — a WAL the client is assumed
    to fsync, so entries survive a client crash.  The ablation
    (``durable=False``) keeps the queue in volatile memory only: a
    crash while entries are queued *loses* them, which is exactly the
    leak experiment E21's ablation leg measures.

:class:`Reconciler` (driven by :meth:`OfflineClient.reconnect`)
    On reconnect the client pulls a version diff from the primary via
    the *same* ``sync_delta`` RPC the anti-entropy syncers use, applies
    it to a shadow :class:`~repro.store.server.CollectionState` seeded
    from the pre-disconnect cached view (``apply_delta`` — the existing
    version-diff machinery, reused verbatim), and classifies every
    queued intent against the reconstructed current membership:

    * an add whose name is now held by a *different* live element lost
      the race — a **conflict**, dropped (the server would reject the
      whole batch otherwise);
    * a remove whose target is tombstoned or superseded is **dropped**
      (already gone, or the remote re-add wins);
    * an offline add paired with an offline remove of the same minted
      element **cancels** locally — neither ever touches the wire;
    * everything else **replays** through one batched
      :class:`~repro.store.writeplan.WritePipeline`.

    Replay is crash-safe because outbox adds pre-mint their element
    (oid and all) at queue time: a reconcile interrupted mid-drain
    re-replays the same specs on recovery and the server's idempotent
    ``add_members``/``remove_members`` skip what already landed — no
    double-applies, no lost queued adds (durable outbox).

Metrics: ``offline.sessions/queued/reads/read_age/outbox_depth/lost``
and ``reconcile.sessions/replayed/conflicts/dropped/cancelled/failed``,
plus a ``reconcile.session`` span per drain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..errors import DisconnectedError
from ..net.address import NodeId
from .cache import ClientCache
from .elements import Element
from .repository import MembershipView, Repository
from .server import CollectionState
from .antientropy import apply_delta
from .world import World
from .writeplan import AddSpec, WritePipeline

__all__ = ["OfflineClient", "Outbox", "OutboxEntry", "ReconcileReport",
           "CONNECTED", "DISCONNECTED", "RECONCILING"]

CONNECTED = "connected"
DISCONNECTED = "disconnected"
RECONCILING = "reconciling"

#: OutboxEntry statuses.
QUEUED = "queued"
REPLAYED = "replayed"
CONFLICT = "conflict"
DROPPED = "dropped"
CANCELLED = "cancelled"
LOST = "lost"


@dataclass
class OutboxEntry:
    """One queued offline mutation and its eventual fate."""

    entry_id: int
    kind: str                          # "add" | "remove"
    coll_id: str
    element: Element                   # pre-minted at queue time (adds too)
    spec: Optional[AddSpec]            # adds only; carries the minted oid
    queued_at: float
    status: str = QUEUED
    settled_at: Optional[float] = None
    error: Optional[BaseException] = field(default=None, compare=False)


class Outbox:
    """The client-side write-back queue, WAL-modeled.

    With ``durable=True`` (the default) entries model a write-ahead log
    on the client's disk: a client crash preserves them, and recovery
    resumes the drain where it left off.  With ``durable=False`` the
    queue is volatile — ``on_crash`` marks every still-queued entry
    LOST, the measurable leak of E21's ablation.
    """

    def __init__(self, durable: bool = True):
        self.durable = durable
        self.entries: list[OutboxEntry] = []
        self._next_id = 0

    def append(self, kind: str, coll_id: str, element: Element,
               spec: Optional[AddSpec], now: float) -> OutboxEntry:
        entry = OutboxEntry(self._next_id, kind, coll_id, element, spec, now)
        self._next_id += 1
        self.entries.append(entry)
        return entry

    def queued(self) -> list[OutboxEntry]:
        return [e for e in self.entries if e.status == QUEUED]

    def depth(self) -> int:
        return sum(1 for e in self.entries if e.status == QUEUED)

    def settle(self, entry: OutboxEntry, status: str, now: float,
               error: Optional[BaseException] = None) -> None:
        entry.status = status
        entry.settled_at = now
        entry.error = error

    def on_crash(self, now: float) -> int:
        """Crash of the hosting node: volatile queues lose everything."""
        if self.durable:
            return 0
        lost = self.queued()
        for entry in lost:
            self.settle(entry, LOST, now)
        return len(lost)


@dataclass
class ReconcileReport:
    """What one reconcile session did with the outbox."""

    pulled: int = 0                    # delta entries applied to the shadow
    replayed: int = 0
    conflicts: int = 0
    dropped: int = 0
    cancelled: int = 0
    failed: int = 0                    # stayed queued (replay op failed)

    @property
    def settled(self) -> int:
        return self.replayed + self.conflicts + self.dropped + self.cancelled


class OfflineClient:
    """One client's disconnected-operation controller for one collection.

    Registers itself as a service on the client node so node
    crash/recovery reaches the outbox (durability semantics) and kills
    any in-flight reconcile drain via the node's tracked handlers —
    the same mechanism that kills server-side RPC handlers mid-flight.
    """

    def __init__(self, world: World, client: NodeId, coll_id: str, *,
                 cache: Optional[ClientCache] = None,
                 durable_outbox: bool = True,
                 window: int = 4, batch_size: int = 8):
        self.world = world
        self.net = world.net
        self.client = client
        self.coll_id = coll_id
        self.cache = cache if cache is not None else ClientCache(ttl=5.0)
        self.outbox = Outbox(durable=durable_outbox)
        self.window = window
        self.batch_size = batch_size
        self.state = CONNECTED
        self.repo = Repository(world, client, cache=self.cache)
        self.repo.offline = self
        self._base_view: Optional[MembershipView] = None
        self.last_report: Optional[ReconcileReport] = None
        self.net.node(client).register_service(f"offline:{coll_id}", self)
        obs = world.kernel.obs
        self._tracer = obs.tracer
        metrics = obs.metrics
        self._m_sessions = metrics.counter("offline.sessions")
        self._m_queued = metrics.counter("offline.queued")
        self._m_reads = metrics.counter("offline.reads")
        self._m_read_age = metrics.histogram("offline.read_age")
        self._m_depth = metrics.gauge("offline.outbox_depth")
        self._m_lost = metrics.counter("offline.lost")
        self._m_rec_sessions = metrics.counter("reconcile.sessions")
        self._m_replayed = metrics.counter("reconcile.replayed")
        self._m_conflicts = metrics.counter("reconcile.conflicts")
        self._m_dropped = metrics.counter("reconcile.dropped")
        self._m_cancelled = metrics.counter("reconcile.cancelled")
        self._m_failed = metrics.counter("reconcile.failed")
        self._m_duration = metrics.histogram("reconcile.duration")

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def disconnected(self) -> bool:
        return self.state == DISCONNECTED

    def attach(self, repo: Repository) -> Repository:
        """Put another repository (e.g. a weak set's) under this gate."""
        repo.offline = self
        return repo

    def disconnect(self) -> None:
        """Enter DISCONNECTED state (the laptop leaves the network).

        The node is isolated in the partition overlay too, so even code
        that bypasses the repository gate finds the network honestly
        gone.  The current cached view is snapshotted as the reconcile
        baseline: the delta pulled on reconnect covers everything since
        this version.
        """
        if self.state == DISCONNECTED:
            return
        if self.state == RECONCILING:
            raise DisconnectedError("cannot disconnect mid-reconcile")
        peeked = self.cache.peek(("membership", self.coll_id), self.world.now)
        self._base_view = peeked[0] if peeked is not None else None
        self.net.isolate(self.client)
        self.state = DISCONNECTED
        self._m_sessions.inc()

    # ------------------------------------------------------------------
    # offline reads (stale, with read-your-writes overlay)
    # ------------------------------------------------------------------
    def read_members(self) -> frozenset[Element]:
        """The membership as this client believes it: the stale cached
        view overlaid with its own queued mutations (read-your-writes).
        Raises :class:`DisconnectedError` on a cold cache — there is
        genuinely nothing to serve."""
        peeked = self.cache.peek(("membership", self.coll_id), self.world.now)
        if peeked is None:
            raise DisconnectedError(
                f"no cached membership for {self.coll_id!r} while offline")
        view, age = peeked
        self._m_reads.inc()
        self._m_read_age.observe(age)
        members = set(view.members)
        for entry in self.outbox.entries:
            if entry.status not in (QUEUED, REPLAYED):
                continue
            if entry.kind == "add":
                members.add(entry.element)
            else:
                members.discard(entry.element)
        return frozenset(members)

    # ------------------------------------------------------------------
    # offline writes (queue, don't send)
    # ------------------------------------------------------------------
    def queue_add(self, name: str, value: Any = None,
                  home: Optional[NodeId] = None, size: int = 0,
                  replicas: tuple[NodeId, ...] = ()) -> Element:
        """Queue an add; the element (oid included) is minted *now* so a
        crash-interrupted replay resubmits the identical element and the
        server's idempotent re-add keeps the outbox item-precise."""
        home = home if home is not None else self.repo.primary_of(self.coll_id)
        replicas = tuple(r for r in replicas if r != home)
        element = Element(name=name, oid=self.world.fresh_oid(name),
                          home=home,
                          replicas=replicas)
        spec = AddSpec(name, value, home, size, replicas, element.oid)
        self.outbox.append("add", self.coll_id, element, spec, self.world.now)
        self._m_queued.inc()
        self._m_depth.set(self.outbox.depth())
        return element

    def queue_remove(self, element: Element) -> None:
        self.outbox.append("remove", self.coll_id, element, None, self.world.now)
        self._m_queued.inc()
        self._m_depth.set(self.outbox.depth())

    # ------------------------------------------------------------------
    # reconnect + reconciliation
    # ------------------------------------------------------------------
    def reconnect(self) -> Generator[Any, Any, ReconcileReport]:
        """Rejoin the network and drain the outbox."""
        if self.state == RECONCILING:
            raise DisconnectedError("reconnect while a reconcile is running")
        if self.state == DISCONNECTED:
            self.net.rejoin(self.client)
            self.state = CONNECTED
        return (yield from self.reconcile())

    def start_reconcile(self):
        """Spawn the reconcile drain as a tracked process on the client
        node: a client crash mid-drain kills it exactly like an
        in-flight RPC handler, leaving the outbox to recovery."""
        kernel = self.world.kernel
        proc = kernel.spawn(self._reconcile_proc(),
                            name=f"reconcile-{self.client}", daemon=True)
        self.net.node(self.client).track_handler(proc)
        return proc

    def _reconcile_proc(self) -> Generator:
        yield from self.reconnect()

    def reconcile(self) -> Generator[Any, Any, ReconcileReport]:
        """One reconcile session over the current outbox."""
        if self.state == DISCONNECTED:
            raise DisconnectedError("reconcile requires reconnecting first")
        self.state = RECONCILING
        started = self.world.now
        report = ReconcileReport()
        span = self._tracer.start(
            "reconcile.session", client=self.client, coll=self.coll_id,
            queued=self.outbox.depth())
        self._m_rec_sessions.inc()
        try:
            yield from self._reconcile_into(report)
        finally:
            self.state = CONNECTED
            self.last_report = report
            self._m_depth.set(self.outbox.depth())
            self._m_duration.observe(self.world.now - started)
            self._tracer.finish(
                span, replayed=report.replayed, conflicts=report.conflicts,
                dropped=report.dropped, cancelled=report.cancelled,
                failed=report.failed)
        return report

    def _reconcile_into(self, report: ReconcileReport) -> Generator:
        queued = self.outbox.queued()
        if not queued:
            return
        now = self.world.now

        # -- pair cancellation: add then remove of the same minted element
        # while offline never needs the network at all.
        queued_add_oids = {e.element.oid: e for e in queued if e.kind == "add"}
        for entry in queued:
            if entry.kind == "remove" and entry.element.oid in queued_add_oids:
                partner = queued_add_oids[entry.element.oid]
                self.outbox.settle(partner, CANCELLED, now)
                self.outbox.settle(entry, CANCELLED, now)
                report.cancelled += 2
                self._m_cancelled.inc(2)
        queued = self.outbox.queued()
        if not queued:
            return

        # -- pull the version diff and rebuild the current membership on
        # a shadow state (the anti-entropy machinery, reused verbatim).
        base_version = self._base_view.version if self._base_view else 0
        primary = self.repo.primary_of(self.coll_id)
        delta = yield from self.repo._call(
            primary, "sync_delta", self.coll_id, base_version)
        shadow = CollectionState(self.coll_id, policy="any", is_primary=False)
        if self._base_view is not None:
            for element in self._base_view.members:
                shadow.members[element.name] = element
                shadow.member_versions[element.name] = base_version
            shadow.version = base_version
        report.pulled = apply_delta(shadow, delta)

        # -- classify each intent against the reconstructed membership.
        now = self.world.now
        replayable: list[OutboxEntry] = []
        for entry in queued:
            name = entry.element.name
            current = shadow.members.get(name)
            if entry.kind == "add":
                if current is not None and current != entry.element:
                    # The name was (re)claimed remotely while we were
                    # away; the server would reject the whole batch, so
                    # the conflict is resolved client-side: remote wins.
                    self.outbox.settle(entry, CONFLICT, now)
                    report.conflicts += 1
                    self._m_conflicts.inc()
                    continue
                replayable.append(entry)
            else:
                if current == entry.element:
                    replayable.append(entry)
                elif current is not None:
                    # Superseded: a remote remove-then-re-add replaced
                    # the target with a different element under the same
                    # name — killing it would destroy the remote add.
                    self.outbox.settle(entry, CONFLICT, now)
                    report.conflicts += 1
                    self._m_conflicts.inc()
                else:
                    # Already gone — a tombstone says the remote side
                    # removed it first (or it predates the baseline);
                    # both sides agree, the intent is a no-op.
                    self.outbox.settle(entry, DROPPED, now)
                    report.dropped += 1
                    self._m_dropped.inc()
        if not replayable:
            return

        # -- replay the survivors through one batched write pipeline.
        pipeline = WritePipeline(self.repo, self.coll_id, window=self.window,
                                 batch_size=self.batch_size,
                                 name=f"outbox-{self.client}")
        pipeline.start()
        node = self.net.node(self.client)
        for proc in pipeline._procs:
            node.track_handler(proc)   # a client crash kills the drain
        try:
            for entry in replayable:
                if entry.kind == "add":
                    pipeline.submit_add(entry.spec)
                else:
                    pipeline.submit_remove(entry.element)
            results = yield from pipeline.drain()
        finally:
            pipeline.stop()
        now = self.world.now
        for entry, result in zip(replayable, results):
            if result.ok:
                self.outbox.settle(entry, REPLAYED, now)
                report.replayed += 1
                self._m_replayed.inc()
            else:
                # Stays QUEUED: idempotent server ops make a later
                # re-replay safe, so failures are retried, never lost.
                report.failed += 1
                self._m_failed.inc()

    # ------------------------------------------------------------------
    # node service hooks
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        lost = self.outbox.on_crash(self.world.now)
        if lost:
            self._m_lost.inc(lost)
        if self.state == RECONCILING:
            # The drain died with the node (tracked handlers); what it
            # managed to settle is settled, the rest is still queued.
            # A reconcile runs only after the rejoin, so the client is
            # connected.
            self.state = CONNECTED
        self._m_depth.set(self.outbox.depth())

    def on_recover(self) -> None:
        """Recovery leaves reconnection to the client: a rebooted laptop
        does not assume the network came back with it."""

    def __repr__(self) -> str:
        return (f"OfflineClient({self.client!r}, coll={self.coll_id!r}, "
                f"state={self.state}, outbox={self.outbox.depth()})")
