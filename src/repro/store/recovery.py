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

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Generator, Iterator

from ..errors import FailureException, SimulationError
from ..net.address import NodeId
from ..net.executor import PRIORITY_LOW
from ..net.resilience import ResilientClient, RetryPolicy
from ..sim.events import Sleep
from .elements import ObjectId
from .server import ObjectServer, batch_add_step, erase_plan
from .wal import PENDING, IntentRecord

if TYPE_CHECKING:  # pragma: no cover
    from .world import World

__all__ = ["RecoveryManager", "RepairDaemon"]


def _at_holder(client: ResilientClient, server: ObjectServer, holder: NodeId,
               method: str, oid: ObjectId) -> Generator[Any, Any, Any]:
    """Run ``method(oid)`` at ``holder`` on ``server``'s behalf.

    A direct call when the holder is ``server`` itself, else a resilient
    RPC in the background admission class: repair traffic must not crowd
    out client work on an already-struggling server.  Returns the
    method's answer, or None when nobody could be asked — the holder is
    unreachable, or ``server``'s own node went down meanwhile.
    """
    try:
        if holder == server.node_id:
            answer = getattr(server, method)(oid)
            if isinstance(answer, GeneratorType):
                answer = yield from answer
            return answer
        if not server.world.net.node(server.node_id).up:
            return None
        return (yield from client.call(
            server.node_id, holder, ObjectServer.SERVICE, method, oid,
            priority=PRIORITY_LOW))
    except (FailureException, SimulationError):
        return None


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
        # A disabled log (the E18 ablation) retains nothing, so it never
        # has a pending intent either.
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
            if state is None or not record.elements:
                server.wal.abort(record)
                return True
            if record.kind == "add-batch":
                for item in record.elements:
                    # A different element may have claimed the name after
                    # the crash — leave it; _finish_add_batch skips it.
                    if state.members.setdefault(item.name, item) == item:
                        server.wal.mark(record, batch_add_step(item))
                server._finish_add_batch(state, record)
            else:
                for item in record.elements:
                    for holder, step in erase_plan(record, item):
                        deleted = yield from _at_holder(
                            self.client, server, holder, "delete_object",
                            item.oid)
                        if deleted is None:
                            self._m_blocked.inc()
                            return False
                        server.wal.mark(record, step)
                server._finish_erase(state, record.elements, record)
            self._m_replayed.inc()
            return True
        finally:
            record.in_flight = False


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

    def _up_servers(self) -> Iterator[ObjectServer]:
        """Servers in node order, each checked for liveness only when the
        sweep reaches it (earlier work in the same pass takes time)."""
        for node in sorted(self.world.servers):
            if self.world.net.node(node).up:
                yield self.world.servers[node]

    # -- pass 1: retry pending intents everywhere -------------------------
    def _retry_pending(self) -> Generator[object, object, int]:
        retried = 0
        for server in self._up_servers():
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
            budget = min(self.PROBE_BUDGET, len(remote))
            window = local + [remote[(cursor + i) % len(remote)]
                              for i in range(budget)]
            self._cursors[cursor_key] = (cursor + budget) % len(remote)
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
                # the handler's _erase — the scrub daemon is not a
                # node-tracked handler, so it must never execute armed
                # crash points).
                record = server.wal.append("erase", state.coll_id, (element,),
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
                    deleted = yield from _at_holder(
                        self.client, server, holder, "delete_object",
                        element.oid)
                    if deleted is None:
                        verified = False
                    else:
                        orphans += 1
                        self._m_orphans.inc()
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
        referenced = self.world.referenced_oids()
        collected = 0
        for server in self._up_servers():
            doomed = [obj.oid for obj in server.objects.values()
                      if not obj.deleted and obj.oid not in referenced
                      and self.world.now - obj.created_at >= grace]
            for oid in doomed:
                yield from server.delete_object(oid)
                collected += 1
                self._m_gc.inc()
        return collected

    def _probe(self, server: ObjectServer, holder, oid) -> Generator[object, object, object]:
        """True/False = holder answered (object live/dead); None = unreachable."""
        self._m_probes.inc()
        return (yield from _at_holder(self.client, server, holder,
                                      "has_object", oid))
