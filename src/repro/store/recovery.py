"""Crash recovery: intent replay on node recovery, plus a repair/scrub daemon.

Two cooperating pieces turn the per-server intent log
(:mod:`repro.store.wal`) into an actual guarantee:

* :class:`RecoveryManager` — hooked into ``Node.recover`` via
  ``ObjectServer.on_recover``.  When a node comes back it replays its
  pending intents *roll-forward*: completed steps are skipped, the rest
  are idempotent re-deletes issued over resilient RPC, and the final
  membership pop lands exactly once.  A replay blocked by an
  unreachable holder leaves the intent pending; the scrub daemon
  retries it.
* :class:`RepairDaemon` — a background process that periodically (a)
  retries pending intents on every up node, (b) probes a rotating
  budget of members' home objects over RPC and completes the removal of
  any *dangling member* (member listed, home object dead — the
  signature of a crash that outran its own log, e.g. with the WAL
  ablated), and (c) probes the holders of recent removals and deletes
  *orphaned copies* (a live data object for an element no collection
  lists).

Both speak real RPC through :class:`~repro.net.resilience.ResilientClient`
with retry/backoff, so recovery itself is fault-exposed: its traffic
shows in ``rpc.attempts``, its progress in the ``recovery.*`` and
``repair.*`` metrics, and its timing in ``recovery.replay`` /
``repair.scrub`` spans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..errors import FailureException, SimulationError
from ..net.executor import PRIORITY_LOW
from ..net.resilience import ResilientClient, RetryPolicy
from ..sim.events import Sleep
from .server import ObjectServer, batch_add_step, batch_erase_step, erase_step
from .wal import PENDING, IntentRecord

if TYPE_CHECKING:  # pragma: no cover
    from .world import World

__all__ = ["RecoveryManager", "RepairDaemon"]


class RecoveryManager:
    """Replays pending intents when their node recovers."""

    def __init__(self, world: "World"):
        self.world = world
        self.client = ResilientClient(
            world.net,
            policy=RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=0.5),
            stream_name="store.recovery",
        )
        metrics = world.kernel.obs.metrics
        self._m_replays = metrics.counter("recovery.replays")
        self._m_replayed = metrics.counter("recovery.intents_replayed")
        self._m_blocked = metrics.counter("recovery.intents_blocked")
        self._m_latency = metrics.histogram("recovery.latency")

    # -- the on_recover hook ----------------------------------------------
    def on_node_recover(self, server: ObjectServer) -> None:
        """Spawn a replay process for ``server`` if it has pending intents.

        The process is tracked as a node handler, so a re-crash during
        recovery kills it mid-replay — and the *next* recovery resumes
        from the steps it managed to mark.
        """
        if not self.world.recovery_enabled:
            return
        if not server.wal.pending():
            return
        proc = self.world.kernel.spawn(
            self._replay(server), name=f"recover:{server.node_id}", daemon=True
        )
        self.world.net.node(server.node_id).track_handler(proc)

    def _replay(self, server: ObjectServer) -> Generator:
        started = self.world.now
        tracer = self.world.kernel.obs.tracer
        span = tracer.start("recovery.replay", node=str(server.node_id))
        self._m_replays.inc()
        replayed = blocked = 0
        for record in server.wal.pending():
            done = yield from self.roll_forward(server, record)
            if done:
                replayed += 1
            else:
                blocked += 1
        self._m_latency.observe(self.world.now - started)
        tracer.finish(span, replayed=replayed, blocked=blocked)

    # -- roll-forward (shared with the scrub daemon) ----------------------
    def roll_forward(self, server: ObjectServer,
                     record: IntentRecord) -> Generator[object, object, bool]:
        """Finish one pending intent; True when it settled.

        Re-executes every unmarked step (deletes are idempotent) and
        runs the final local step.  Returns False — intent stays
        pending — when a holder is unreachable or this node goes down
        mid-replay; a later replay or scrub round retries.
        """
        if record.status is not PENDING or record.in_flight:
            return record.status is not PENDING
        record.in_flight = True
        try:
            state = server.collections.get(record.coll_id)
            if record.kind == "seal":
                if state is not None:
                    state.sealed = True
                server.wal.commit(record)
                return True
            if record.kind == "add-batch":
                if state is None or not record.elements:
                    server.wal.abort(record)
                    return True
                for item in record.elements:
                    existing = state.members.get(item.name)
                    if existing is None:
                        state.members[item.name] = item
                        server.wal.mark(record, batch_add_step(item))
                    elif existing == item:
                        server.wal.mark(record, batch_add_step(item))
                    # else: a different element claimed the name after the
                    # crash — leave it; _finish_add_batch skips this item.
                server._finish_add_batch(state, record)
                self._m_replayed.inc()
                return True
            # "erase" and "erase-batch" are one engine: a single erase is
            # a batch of one that keeps the bare (un-namespaced) step names.
            items = record.elements
            step_of = batch_erase_step
            if record.kind == "erase":
                items = (record.element,) if record.element is not None else ()
                step_of = erase_step
            if state is None or not items:
                server.wal.abort(record)
                return True
            for item in items:
                ok = yield from self._erase_copies(server, record, item, step_of)
                if not ok:
                    return False
            server._finish_erase_batch(state, items, record)
            self._m_replayed.inc()
            return True
        finally:
            record.in_flight = False

    def _erase_copies(self, server: ObjectServer, record: IntentRecord,
                      element, step_of) -> Generator[object, object, bool]:
        """Idempotently re-delete one element's unmarked copies.

        ``step_of`` picks the step namespace: plain erase intents use
        ``erase_step`` names, batch intents the per-item
        ``batch_erase_step`` names.  Returns False (intent stays
        pending) when a holder is unreachable or this node goes down.
        """
        net = self.world.net
        for holder in element.replicas + (element.home,):
            step = step_of(element, holder)
            if record.done(step):
                continue
            try:
                if holder == server.node_id:
                    yield from server.delete_object(element.oid)
                else:
                    if not net.node(server.node_id).up:
                        return False
                    # Repair traffic rides the background admission
                    # class: it must not crowd out client work on an
                    # already-struggling server.
                    yield from self.client.call(
                        server.node_id, holder, ObjectServer.SERVICE,
                        "delete_object", element.oid, priority=PRIORITY_LOW,
                    )
            except (FailureException, SimulationError):
                self._m_blocked.inc()
                return False
            server.wal.mark(record, step)
        return True


class RepairDaemon:
    """Background scrub: retry pending intents, heal dangling members,
    delete orphaned copies of removed elements, and garbage-collect
    objects no collection references (the debris of failed adds)."""

    #: members whose home is probed per collection per round (rotating
    #: cursor) — bounds steady-state probe traffic on large collections.
    PROBE_BUDGET = 4

    #: scrub rounds a live object may sit unreferenced before pass 4
    #: collects it — long enough for an in-flight add (object stored,
    #: membership registration still travelling) to land, or for the
    #: writing client to run its own best-effort cleanup first.
    ORPHAN_GRACE_ROUNDS = 4

    def __init__(self, world: "World"):
        self.world = world
        self.client = ResilientClient(
            world.net,
            policy=RetryPolicy(max_attempts=2, base_delay=0.05, max_delay=0.25),
            stream_name="store.repair",
        )
        self._cursors: dict[str, int] = {}
        metrics = world.kernel.obs.metrics
        self._m_rounds = metrics.counter("repair.scrub_rounds")
        self._m_probes = metrics.counter("repair.probes")
        self._m_dangling = metrics.counter("repair.dangling_healed")
        self._m_orphans = metrics.counter("repair.orphans_deleted")
        self._m_gc = metrics.counter("repair.objects_gcd")

    def run(self) -> Generator:
        tracer = self.world.kernel.obs.tracer
        while True:
            yield Sleep(self.world.scrub_interval)
            self._m_rounds.inc()
            span = tracer.start("repair.scrub")
            retried = yield from self._retry_pending()
            healed = orphans = 0
            for coll_id in sorted(self.world.collections):
                # One scrub per authoritative partition: the single home
                # of a classic collection, or every shard (including a
                # migration target) of a sharded one.
                for shard, state in self.world.partition_states(coll_id):
                    if not self.world.net.node(shard).up:
                        continue
                    if not state.is_primary:
                        continue
                    server = self.world.servers[shard]
                    healed += yield from self._heal_dangling(server, state)
                    orphans += yield from self._verify_removals(server, state)
            gcd = yield from self._collect_orphan_objects()
            tracer.finish(span, retried=retried, healed=healed, orphans=orphans,
                          gcd=gcd)

    # -- pass 1: retry pending intents everywhere -------------------------
    def _retry_pending(self) -> Generator[object, object, int]:
        retried = 0
        for node in sorted(self.world.servers):
            if not self.world.net.node(node).up:
                continue
            server = self.world.servers[node]
            for record in server.wal.pending():
                done = yield from self.world.recovery.roll_forward(server, record)
                if done:
                    retried += 1
        return retried

    # -- pass 2: dangling members (member listed, home object dead) -------
    def _heal_dangling(self, server: ObjectServer, state) -> Generator[object, object, int]:
        names = sorted(state.members)
        if not names:
            return 0
        # Probing a member whose home is *this* server is a local dict
        # lookup — sweep all of those every round.  The probe budget
        # rations only the remote probes, which cost an RPC each.
        local = [n for n in names
                 if state.members[n].home == server.node_id]
        remote = [n for n in names
                  if state.members[n].home != server.node_id]
        window = local
        if remote:
            cursor_key = f"{state.coll_id}@{server.node_id}"
            cursor = self._cursors.get(cursor_key, 0)
            window = local + [
                remote[(cursor + i) % len(remote)]
                for i in range(min(self.PROBE_BUDGET, len(remote)))]
            self._cursors[cursor_key] = (cursor + min(
                self.PROBE_BUDGET, len(remote))) % len(remote)
        healed = 0
        for name in window:
            element = state.members.get(name)
            if element is None or name in state.ghosts:
                continue   # ghost purges are end_iteration's job
            alive = yield from self._probe(server, element.home, element.oid)
            if alive is False and state.members.get(name) == element:
                # The home *answered* and the object is dead: a removal
                # outran its log (or there was no log).  Complete it by
                # logging a fresh intent and rolling it forward (not via
                # _erase_member — the scrub daemon is not a node-tracked
                # handler, so it must never execute armed crash points).
                record = server.wal.append("erase", state.coll_id, element,
                                           origin="scrub")
                done = yield from self.world.recovery.roll_forward(server, record)
                if done:
                    healed += 1
                    self._m_dangling.inc()
        return healed

    # -- pass 3: orphaned copies of removed elements ----------------------
    def _verify_removals(self, server: ObjectServer, state) -> Generator[object, object, int]:
        orphans = 0
        for name in sorted(state.unverified_removals):
            entry = state.removed.get(name)
            if entry is None:
                state.unverified_removals.discard(name)
                continue
            _, element = entry
            verified = True
            for holder in element.locations:
                alive = yield from self._probe(server, holder, element.oid)
                if alive is None:
                    verified = False     # holder unreachable; retry next round
                elif alive:
                    deleted = yield from self._delete(server, holder, element.oid)
                    if deleted:
                        orphans += 1
                        self._m_orphans.inc()
                    else:
                        verified = False
            if verified:
                state.unverified_removals.discard(name)
        return orphans

    # -- pass 4: objects nobody references (debris of failed adds) --------
    def _collect_orphan_objects(self) -> Generator[object, object, int]:
        """Delete live objects no collection references.

        A crashed or failed add can leave object copies whose membership
        registration never happened and whose client-side cleanup could
        not reach a downed holder — invisible to pass 3, which only
        chases *tombstoned* removals.  The referenced set is read from
        simulator state (the same God's-eye view passes 2-3 use for
        primary membership); the deletes run on the holding server
        itself.  A grace period of :data:`ORPHAN_GRACE_ROUNDS` scrub
        rounds keeps freshly-written objects of in-flight adds safe.
        """
        grace = self.world.scrub_interval * self.ORPHAN_GRACE_ROUNDS
        referenced: set = set()
        for coll_id in self.world.collections:
            for _, state in self.world.partition_states(coll_id):
                for element in state.members.values():
                    referenced.add(element.oid)
                for _, element in state.removed.values():
                    referenced.add(element.oid)
        for server in self.world.servers.values():
            for record in server.wal.pending():
                if record.element is not None:
                    referenced.add(record.element.oid)
                for element in record.elements:
                    referenced.add(element.oid)
        collected = 0
        for node in sorted(self.world.servers):
            if not self.world.net.node(node).up:
                continue
            server = self.world.servers[node]
            doomed = [obj.oid for obj in server.objects.values()
                      if not obj.deleted and obj.oid not in referenced
                      and self.world.now - obj.created_at >= grace]
            for oid in doomed:
                yield from server.delete_object(oid)
                collected += 1
                self._m_gc.inc()
        return collected

    # -- RPC helpers ------------------------------------------------------
    def _probe(self, server: ObjectServer, holder, oid) -> Generator[object, object, object]:
        """True/False = holder answered (object live/dead); None = unreachable."""
        self._m_probes.inc()
        try:
            if holder == server.node_id:
                return server.has_object(oid)
            if not self.world.net.node(server.node_id).up:
                return None
            alive = yield from self.client.call(
                server.node_id, holder, ObjectServer.SERVICE, "has_object", oid,
                priority=PRIORITY_LOW,
            )
            return bool(alive)
        except (FailureException, SimulationError):
            return None

    def _delete(self, server: ObjectServer, holder, oid) -> Generator[object, object, bool]:
        try:
            if holder == server.node_id:
                yield from server.delete_object(oid)
                return True
            if not self.world.net.node(server.node_id).up:
                return False
            yield from self.client.call(
                server.node_id, holder, ObjectServer.SERVICE, "delete_object", oid,
                priority=PRIORITY_LOW,
            )
            return True
        except (FailureException, SimulationError):
            return False
