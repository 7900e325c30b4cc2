"""RPC-based anti-entropy: replicas pull version diffs from the primary.

Replica synchronization used to be a god-mode bulk copy inside the
:class:`~repro.store.world.World` — zero messages, zero latency, immune
to faults.  This module makes it an honest protocol: every collection
replica runs one :class:`AntiEntropySyncer` process that, each
``replica_lag`` period, calls the primary's
:meth:`~repro.store.server.ObjectServer.sync_delta` over the resilient
RPC layer and applies the returned diff to *its own* state.  Sync now

* costs messages and latency (it shows up in ``net.messages_sent``,
  ``rpc.attempts``, and the ``sync.round`` spans),
* fails when the primary is unreachable (retried with backoff by
  :class:`~repro.net.resilience.ResilientClient`, counted in
  ``sync.failures``), and
* propagates *removals* explicitly via tombstones, not by copying the
  whole map — the version diff the paper's "one node may have more
  up-to-date information than another" presumes.

A replica cut off from the primary keeps serving its last synchronized
state, exactly as before; the staleness experiments (E5/E5a) measure
the same lag, now over a real wire.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..errors import FailureException, SimulationError
from ..net.address import NodeId
from ..net.executor import PRIORITY_LOW
from ..sim.events import Sleep
from .server import CollectionState

if TYPE_CHECKING:  # pragma: no cover
    from .world import CollectionInfo, World

__all__ = ["AntiEntropySyncer", "apply_delta"]


def apply_delta(state: CollectionState, delta: dict) -> int:
    """Apply a :meth:`sync_delta` reply to a replica's own state.

    Removals land before additions so a remove-then-re-add under the
    same name within one diff resolves to the re-add; a tombstone older
    than the locally known member version is ignored (the re-add
    already outran it).  Returns the number of entries applied.
    """
    for name, version, element in delta["removes"]:
        known = state.member_versions.get(name)
        if known is not None and known > version:
            continue
        state.forget(name)
        state.removed[name] = (version, element)
    for name, element, version in delta["adds"]:
        state.members[name] = element
        state.member_versions[name] = version
    state.ghosts = set(delta["ghosts"])
    state.sealed = delta["sealed"]
    state.version = delta["version"]
    return len(delta["adds"]) + len(delta["removes"])


class AntiEntropySyncer:
    """One replica's pull loop for one partition of one collection.

    The syncer pulls from ``source`` — the partition's owner: the
    primary of a classic collection, one shard of a sharded one — and
    applies to the replica's own state, filed under the collection's
    :meth:`~repro.store.world.CollectionInfo.mirror_id` for that
    partition.  A mirror of a sharded collection runs one syncer *per
    shard*, so it follows every partition through the identical pull
    protocol.

    A rebalance that drops a migrated range does so without tombstones
    (see :meth:`~repro.store.server.ObjectServer.drop_range`), bumping
    the partition's ``epoch`` instead; a syncer that observes a new
    epoch discards its local copy and re-pulls from version 0 — a full
    resync, paid only at cutover.
    """

    def __init__(self, world: "World", info: "CollectionInfo", replica: NodeId,
                 source: NodeId):
        self.world = world
        self.info = info
        self.replica = replica
        self.source = source
        self.state_id = info.mirror_id(source)
        metrics = world.kernel.obs.metrics
        self._m_rounds = metrics.counter("sync.rounds")
        self._m_failures = metrics.counter("sync.failures")
        self._m_entries = metrics.counter("sync.entries")
        self._m_resyncs = metrics.counter("sync.epoch_resyncs")

    def run(self) -> Generator:
        """The syncer process (spawned as a daemon by the world)."""
        net = self.world.net
        tracer = self.world.kernel.obs.tracer
        server = self.world.servers[self.replica]
        while True:
            yield Sleep(self.world.replica_lag)
            if not net.node(self.replica).up:
                continue   # a crashed replica cannot pull; it catches up on recovery
            state = server.collections[self.state_id]
            span = tracer.start("sync.round", coll=self.info.coll_id,
                                replica=self.replica, source=self.source)
            delta = yield from self._pull(state.version, span)
            if delta is not None and delta.get("epoch", 0) != state.epoch:
                # The source dropped a migrated range without tombstones;
                # our copy may list members it no longer owns.  Discard
                # and re-pull from scratch under the new epoch.  If that
                # pull fails we retry next period; the cleared state is
                # safe (empty is always a legal stale view).
                self._m_resyncs.inc()
                state.members.clear()
                state.member_versions.clear()
                state.removed.clear()
                state.unverified_removals.clear()
                state.ghosts = set()
                state.version = 0
                state.epoch = delta.get("epoch", 0)
                delta = yield from self._pull(0, span)
            if delta is None:
                continue
            state.epoch = delta.get("epoch", 0)
            applied = apply_delta(state, delta)
            self._m_rounds.inc()
            if applied:
                self._m_entries.inc(applied)
            tracer.finish(span, outcome="ok", entries=applied)

    def _pull(self, since_version: int,
              span) -> Generator[object, object, "dict | None"]:
        """One ``sync_delta`` pull; None (counted, ``span`` closed) when
        it failed.

        Background-class admission priority: under overload,
        anti-entropy yields to client reads rather than competing with
        them (aging still prevents starvation).
        """
        try:
            return (yield from self.world.sync_client.call(
                self.replica, self.source, "store", "sync_delta",
                self.info.coll_id, since_version,
                timeout=self.world.replica_lag, priority=PRIORITY_LOW,
            ))
        except (FailureException, SimulationError) as exc:
            # FailureException: the source was unreachable (retries
            # exhausted).  SimulationError: *we* crashed between the
            # liveness check and an attempt — skip the round; the loop
            # re-checks liveness next period.
            self._m_failures.inc()
            self.world.kernel.obs.tracer.finish(span, outcome=type(exc).__name__)
            return None
