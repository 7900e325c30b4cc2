"""The :class:`World`: a simulated wide-area information system.

A ``World`` wires an object server onto every node of a
:class:`~repro.net.Network`, manages distributed collections (primary +
lazily synchronized replicas), and — crucially for the reproduction —
exposes the **ground truth** the specification checker needs:

* ``true_members(coll)`` — the set's value ``s_σ`` *right now*
  (authoritative: the primary's membership, which survives crashes);
* ``reachable_members(coll, observer)`` — the paper's
  ``reachable(s_σ)`` evaluated for a particular observing client;
* ``on_change(cb)`` — fires on every membership or connectivity change,
  so the checker can re-sample state exactly when the computation's
  state sequence σ₀ S₁ σ₁ … advances;
* ``membership_history(coll)`` — the full value history, used to check
  ``constraint`` clauses and Fig 6's "in the set at some state between
  the first-state and last-state" guarantee.  It is recorded as the
  partition views each value is the union of, so a write stores the one
  view it changed and shares the rest with the previous entry; the
  values are merged when read.

Implementations of weak sets never touch ground truth; they go through
RPC (:class:`~repro.store.repository.Repository`) like honest clients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import is_
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import FailureException, NoSuchCollectionError, SimulationError
from ..net.address import NodeId
from ..net.executor import BoundedExecutor, ExecutorPolicy
from ..net.fabric import Network
from ..net.resilience import ResilientClient, RetryPolicy
from ..sim.events import Sleep
from .antientropy import AntiEntropySyncer
from .elements import Element
from .recovery import RecoveryManager, RepairDaemon
from .server import CollectionState, ObjectServer
from .sharding import HashRing, ShardMap, shard_state_id

__all__ = ["World", "CollectionInfo"]


@dataclass
class CollectionInfo:
    """World-level record of one distributed collection — and the one
    place that knows its *placement*: which node owns a name's registry
    entry, which nodes hold partitions, and under which id a mirror
    files a partition.  A classic collection is the one-partition case
    (its primary owns every name), so callers ask these questions
    without first asking whether the collection is sharded.
    """

    coll_id: str
    primary: NodeId
    replicas: tuple[NodeId, ...]
    policy: str
    #: ``s_σ``'s recorded values, one ``(time, views)`` per change: the
    #: partition views the value was merged from (``World._partition_views``),
    #: so the views of the partitions a write left alone are the previous
    #: entry's objects.  ``merged_history`` merges them on read.
    history: list[tuple[float, tuple[frozenset[Element], ...]]] = field(
        default_factory=list)
    #: placement of a *sharded* registry (None = classic single home).
    #: The primary of a sharded collection is its first shard — the
    #: rebalance coordinator and the anchor for iteration registration.
    shard_map: Optional[ShardMap] = None
    #: a sharded collection's last merged value, with the per-shard
    #: owned views it was merged from (``World._current_value``)
    _merged: Optional[tuple[tuple, frozenset[Element]]] = field(
        default=None, init=False, repr=False, compare=False)
    #: the ring the last history entry's views were cut by (None for a
    #: single home)
    _history_ring: Optional[HashRing] = field(
        default=None, init=False, repr=False, compare=False)

    def merged_history(
        self, entries: Iterable[tuple[float, tuple[frozenset[Element], ...]]]
    ) -> list[tuple[float, frozenset[Element]]]:
        """``history`` entries as ``(time, s_σ)``: a single home's one
        view is the value, a sharded registry's disjoint views are
        merged."""
        if self.shard_map is None:
            return [(time, value) for time, (value,) in entries]
        return [(time, frozenset().union(*views)) for time, views in entries]

    @property
    def hosts(self) -> tuple[NodeId, ...]:
        return (self.primary,) + self.replicas

    @property
    def is_sharded(self) -> bool:
        return self.shard_map is not None

    @property
    def shards(self) -> tuple[NodeId, ...]:
        """Current partition owners (just the primary when unsharded)."""
        if self.shard_map is None:
            return (self.primary,)
        return self.shard_map.shards

    def owner_of(self, name: str) -> NodeId:
        """The node owning ``name``'s registry entry right now."""
        if self.shard_map is None:
            return self.primary
        return self.shard_map.ring.owner(name)

    def partition_nodes(self) -> tuple[NodeId, ...]:
        """The nodes holding authoritative registry partitions right now:
        the shards, plus a migration target while one is pre-copying.
        Iteration tokens are registered at each of them (a target must
        keep deferring removals for in-flight runs)."""
        nodes = self.shards
        if self.shard_map is not None and self.shard_map.migration is not None:
            nodes += tuple(n for n in self.shard_map.migration.nodes
                           if n not in nodes)
        return nodes

    def lock_nodes(self) -> tuple[NodeId, ...]:
        """Nodes whose locks guard this collection, in canonical *ring
        order* — every client walks the same cycle, so cross-shard lock
        acquisition is deadlock-free.  A single home means one lock."""
        if self.shard_map is None:
            return (self.primary,)
        return self.shard_map.ring.ordered_nodes()

    def partition_hosts(self, shard: NodeId) -> tuple[NodeId, ...]:
        """Hosts serving ``shard``'s partition: the shard itself plus
        every mirror node."""
        return (shard,) + self.replicas

    def mirror_id(self, shard: NodeId) -> str:
        """The state id a mirror node files ``shard``'s partition under
        (a classic replica mirrors its one partition under the plain id)."""
        if self.shard_map is None:
            return self.coll_id
        return shard_state_id(self.coll_id, shard)

    def state_id(self, shard: NodeId, host: NodeId) -> str:
        """The id ``host`` serves ``shard``'s partition under: the plain
        collection id at the shard itself, the mirror id anywhere else."""
        return self.coll_id if host == shard else self.mirror_id(shard)


class World:
    """Object servers + collections + ground truth over one network."""

    def __init__(self, net: Network, *, service_time: float = 0.002,
                 replica_lag: float = 0.5, recovery_enabled: bool = True,
                 scrub_interval: float = 2.0,
                 executor: Optional[ExecutorPolicy] = None):
        """
        Args:
            net: the simulated network to install servers on.
            service_time: per-request server-side processing delay.
            replica_lag: anti-entropy period for collection replicas;
                bounds how stale a reachable replica can be while the
                primary is reachable.
            recovery_enabled: retain write-ahead intents and run the
                recovery/repair protocol (replay on recover + scrub).
                ``False`` is the E18 ablation: crashes still interrupt
                multi-step mutations, but nothing rolls them forward.
            scrub_interval: period of the background repair daemon.
            executor: admission-control policy installed on every node
                (finite worker pool + bounded queue + shedding); None
                keeps the seed model of unbounded server concurrency.
        """
        self.net = net
        self.kernel = net.kernel
        self.service_time = service_time
        #: the one effect every server handler yields for its service
        #: delay (read-only: nothing reassigns ``service_time``)
        self.service_sleep = Sleep(service_time)
        self.replica_lag = replica_lag
        self.recovery_enabled = recovery_enabled
        self.scrub_interval = scrub_interval
        self.executor_policy = executor
        self.servers: dict[NodeId, ObjectServer] = {}
        self.collections: dict[str, CollectionInfo] = {}
        #: per-world id minters: oids, iteration tokens and lock owners
        #: appear inside wire payloads, so their widths must be a function
        #: of the run, not of how many other worlds this *process* built
        #: before (byte counts are gated seed-deterministic in E25).
        self._oid_counter = itertools.count(1)
        self._iter_counter = itertools.count(1)
        self._lock_owner_counter = itertools.count(1)
        self._listeners: list[Callable[[], None]] = []
        #: the client side's metric instruments: resolved by this world's
        #: first Repository, shared by every later one
        self.repository_instruments = None
        #: id(listing) -> (listing, frozenset(listing)) for the member
        #: tuples ``list_members`` replied with: a server answers with
        #: the same tuple until the collection is written, so its clients
        #: hash the members once per listing, not once per read.  Filled
        #: and bounded by ``Repository._membership_view``; the entry holds
        #: its tuple, so the id cannot be reused while it is here.
        self.listing_sets: dict[int, tuple[tuple, frozenset]] = {}
        #: shared RPC client for the anti-entropy syncers (its own RNG
        #: stream so sync backoff never perturbs client-facing draws).
        self.sync_client = ResilientClient(
            net,
            policy=RetryPolicy(max_attempts=2, base_delay=0.05, max_delay=0.25),
            stream_name="store.sync",
        )
        self.recovery = RecoveryManager(self)
        self.repair: Optional[RepairDaemon] = None
        for node in sorted(net.nodes):
            server = ObjectServer(node, self)
            self.servers[node] = server
            net.register_service(node, ObjectServer.SERVICE, server)
            if executor is not None:
                net.node(node).executor = BoundedExecutor(
                    self.kernel, executor, name=str(node))
        net.on_connectivity_change(self._notify)

    def fresh_oid(self, prefix: str = "obj") -> str:
        """This world's next object identifier (seed-deterministic)."""
        return f"{prefix}-{next(self._oid_counter)}"

    def fresh_iter_token(self, client: NodeId) -> str:
        """This world's next per-run iteration token."""
        return f"iter-{client}-{next(self._iter_counter)}"

    def fresh_lock_owner(self, client: NodeId) -> str:
        """This world's next lock-holder identity."""
        return f"{client}#{next(self._lock_owner_counter)}"

    @property
    def now(self) -> float:
        return self.kernel.clock.now

    # ------------------------------------------------------------------
    # collection management
    # ------------------------------------------------------------------
    def create_collection(self, coll_id: str, primary: Optional[NodeId] = None,
                          replicas: Iterable[NodeId] = (),
                          policy: str = "any", *,
                          shards: Iterable[NodeId] = (),
                          ring_seed: int = 0,
                          vnodes: int = 16) -> CollectionInfo:
        """Create an empty collection.

        Classic form: a single ``primary`` home plus lazily-synchronized
        ``replicas``.  Sharded form: pass ``shards`` — the membership
        registry is partitioned across them by a consistent-hash ring
        (``ring_seed``/``vnodes`` parameterize placement), ``primary``
        defaults to the first shard (the rebalance coordinator), and
        each node in ``replicas`` *mirrors every shard's partition*
        under the namespaced id :func:`~repro.store.sharding.shard_state_id`
        via one anti-entropy pull loop per (mirror, shard) pair.
        """
        if coll_id in self.collections:
            raise SimulationError(f"collection {coll_id!r} already exists")
        replicas = tuple(replicas)
        if len(set(replicas)) != len(replicas):
            raise SimulationError(
                f"duplicate node ids in replicas: {replicas!r}")
        shards = tuple(shards)
        shard_map: Optional[ShardMap] = None
        if shards:
            ring = HashRing(shards, vnodes=vnodes, seed=ring_seed)
            shard_map = ShardMap(ring=ring)
            if primary is None:
                primary = shards[0]
            if primary not in ring:
                raise SimulationError(
                    "the primary of a sharded collection must be one of "
                    f"its shards ({primary!r} not in {sorted(shards)})")
            overlap = set(shards) & set(replicas)
            if overlap:
                raise SimulationError(
                    f"nodes {sorted(overlap)} are both shards and replicas")
        elif primary is None:
            raise SimulationError("create_collection needs a primary or shards")
        if primary in replicas:
            raise SimulationError("primary must not also be listed as a replica")
        info = CollectionInfo(coll_id, primary, replicas, policy,
                              shard_map=shard_map)
        for shard in info.shards:
            self.servers[shard].host_collection(coll_id, policy, is_primary=True)
        self.collections[coll_id] = info
        info.history.append((self.now, self._partition_views(info)))
        info._history_ring = shard_map.ring if shard_map is not None else None
        for node in replicas:
            for shard in info.shards:
                self._host_mirror(info, node, shard)
        if self.recovery_enabled and self.repair is None:
            self.repair = RepairDaemon(self)
            self.kernel.spawn(self.repair.run(), name="repair-scrub", daemon=True)
        return info

    def _host_mirror(self, info: CollectionInfo, node: NodeId,
                     shard: NodeId) -> None:
        """Host ``shard``'s mirror partition on ``node`` and start its
        anti-entropy pull loop (one per mirrored partition)."""
        alias = info.mirror_id(shard)
        if alias in self.servers[node].collections:
            return
        self.servers[node].host_collection(alias, info.policy, is_primary=False)
        syncer = AntiEntropySyncer(self, info, node, shard)
        self.kernel.spawn(syncer.run(), name=f"sync:{alias}:{node}", daemon=True)

    def seed_member(self, coll_id: str, name: str, value: Any = None,
                    home: Optional[NodeId] = None, size: int = 0,
                    replicas: Iterable[NodeId] = ()) -> Element:
        """Instantly create a member during setup (no RPC cost).

        The data object is stored at ``home`` (default: the primary) and
        at each node in ``replicas`` (object-level copies the resilient
        fetch path can fail over to); the membership is registered at the
        primary and pushed to all collection replicas, so the world
        starts consistent.
        """
        info = self.collection_info(coll_id)
        owner = info.owner_of(name)
        home = home if home is not None else owner
        object_replicas = tuple(r for r in replicas if r != home)
        element = Element(name=name, oid=self.fresh_oid(name), home=home,
                          replicas=object_replicas)
        self.servers[home].store_direct(element, value, size)
        for node in object_replicas:
            self.servers[node].store_direct(element, value, size)
        # The owner's state first, then every mirror of its partition.
        states = [self.servers[host].collections[info.state_id(owner, host)]
                  for host in info.partition_hosts(owner)]
        if name in states[0].members:
            raise SimulationError(f"{coll_id} already has member {name!r}")
        version = states[0].version + 1
        for state in states:
            state.members[name] = element
            state.member_versions[name] = version
            state.version = version
        self._membership_changed(coll_id)
        return element

    def seal(self, coll_id: str) -> None:
        """Instantly seal an immutable collection after seeding."""
        info = self.collection_info(coll_id)
        for shard in info.shards:
            for host in info.partition_hosts(shard):
                state_id = info.state_id(shard, host)
                self.servers[host].collections[state_id].sealed = True

    # ------------------------------------------------------------------
    # live rebalancing (sharded collections)
    # ------------------------------------------------------------------
    def add_shard(self, coll_id: str, node: NodeId):
        """Grow a sharded collection's ring by one node, live.

        Spawns (and returns) the migration coordinator process; writes
        continue throughout.  The protocol per losing source: pre-copy
        the moving range via ``sync_delta``/``absorb_handoff``, wait for
        WAL quiescence, freeze the moving keys (writes answer
        ``ServerBusyFailure`` and retry), re-check quiescence, ship the
        final delta, then cut the ring over atomically (one generation
        bump) and drop the moved range at the source (epoch bump — its
        mirrors re-pull from scratch).  Every phase is idempotent, so the
        coordinator simply retries the whole migration after any crash
        until it lands; ``check_invariants`` holds at every quiescent
        point in between.
        """
        info = self.collection_info(coll_id)
        if not info.is_sharded:
            raise SimulationError(f"{coll_id!r} is not sharded")
        if node not in self.servers:
            raise SimulationError(f"no server on node {node!r}")
        return self._start_rebalance(info, info.shard_map.ring.with_node(node))

    def remove_shard(self, coll_id: str, node: NodeId):
        """Shrink a sharded collection's ring by one node, live (the
        inverse of :meth:`add_shard`; same protocol, the leaving node is
        a source for every key it holds).  The coordinator shard itself
        cannot be removed."""
        info = self.collection_info(coll_id)
        if not info.is_sharded:
            raise SimulationError(f"{coll_id!r} is not sharded")
        if node == info.primary:
            raise SimulationError(
                f"{node!r} is the coordinator shard of {coll_id!r}; "
                "it cannot be removed")
        return self._start_rebalance(info, info.shard_map.ring.without_node(node))

    def _start_rebalance(self, info: CollectionInfo, target: HashRing):
        smap = info.shard_map
        if smap.migration is not None:
            raise SimulationError(
                f"a rebalance of {info.coll_id!r} is already in flight")
        smap.migration = target
        sealed = self.servers[info.primary].collections[info.coll_id].sealed
        for shard in target.nodes:
            if info.coll_id not in self.servers[shard].collections:
                state = self.servers[shard].host_collection(
                    info.coll_id, info.policy, is_primary=True)
                state.sealed = sealed
            for replica in info.replicas:
                self._host_mirror(info, replica, shard)
        return self.kernel.spawn(
            self._rebalance(info, smap.ring, target),
            name=f"rebalance:{info.coll_id}",
        )

    def _rebalance(self, info: CollectionInfo, old_ring: HashRing,
                   target: HashRing) -> Generator:
        """The migration coordinator process (runs at ``info.primary``)."""
        coll_id = info.coll_id
        metrics = self.kernel.obs.metrics
        tracer = self.kernel.obs.tracer
        span = tracer.start("shard.rebalance", coll=coll_id,
                            to=target.nodes)
        attempt = 0
        while True:
            attempt += 1
            try:
                yield from self._rebalance_once(info, old_ring, target)
                break
            except FailureException:
                # A source or target was unreachable mid-phase (possibly
                # a crash).  Unfreeze what we can, back off, and replay
                # the migration from the top — every phase is idempotent.
                metrics.counter("shard.rebalance_retries").inc()
                for source in old_ring.nodes:
                    try:
                        yield from self._coordinate(
                            info, source, "unfreeze_range", timeout=1.0)
                    except FailureException:
                        pass
                yield Sleep(min(2.0, 0.1 * (2 ** min(attempt, 4))))
        # Post-cutover cleanup: drop the moved ranges at their sources.
        # Retried independently — the ring has already cut over, so a
        # crashed source just delays its drop until it recovers.
        for source in old_ring.nodes:
            while True:
                try:
                    yield from self._coordinate(info, source, "drop_range",
                                                target)
                    break
                except FailureException:
                    yield Sleep(0.25)
        metrics.counter("shard.rebalances").inc()
        tracer.finish(span, outcome="ok", attempts=attempt)

    def _coordinate(self, info: CollectionInfo, node: NodeId, method: str,
                    *args: Any, timeout: float = 5.0) -> Generator:
        """One coordinator RPC: ``method(coll_id, *args)`` at ``node``,
        issued from the collection's primary."""
        return self.sync_client.call(info.primary, node, "store", method,
                                     info.coll_id, *args, timeout=timeout)

    def _rebalance_once(self, info: CollectionInfo, old_ring: HashRing,
                        target: HashRing) -> Generator:
        smap = info.shard_map
        # Phase 1: pre-copy every source's full state, filtered to the
        # keys it loses, while writes continue unimpeded.
        precopy_version: dict[NodeId, int] = {}
        for source in old_ring.ordered_nodes():
            precopy_version[source] = yield from self._ship_handoff(
                info, source, 0, target)
        # Phase 2: per source — quiesce the WAL, freeze the moving keys,
        # re-check quiescence (an intent admitted before the freeze may
        # still be mid-flight), then ship the final delta: provably the
        # last word on the moving range.
        for source in old_ring.ordered_nodes():
            yield from self._wait_quiescent(info, source)
            yield from self._coordinate(info, source, "freeze_range", target)
            yield from self._wait_quiescent(info, source)
            yield from self._ship_handoff(
                info, source, precopy_version[source], target)
        # Phase 3: atomic cutover — one assignment visible to every
        # client's next map resolution, fenced by the generation bump.
        smap.ring = target
        smap.generation += 1
        smap.migration = None
        self._membership_changed(info.coll_id)

    def _ship_handoff(self, info: CollectionInfo, source: NodeId,
                      since_version: int,
                      target: HashRing) -> Generator[Any, Any, int]:
        """Pull ``source``'s delta since ``since_version`` and ship the
        parts that move under ``target`` to their gaining shards
        (idempotent keyed upserts); returns the version pulled."""
        delta = yield from self._coordinate(info, source, "sync_delta",
                                            since_version)
        moving = ([("adds", name, element)
                   for name, element, _version in delta["adds"]]
                  + [("removes", name, element)
                     for name, _version, element in delta["removes"]])
        gains: dict[NodeId, dict] = {}
        for kind, name, element in moving:
            new_owner = target.owner(name)
            if new_owner != source:
                bucket = gains.setdefault(new_owner, {"adds": [], "removes": []})
                bucket[kind].append((name, element))
        ghosts = set(delta["ghosts"])
        iterations = tuple(delta.get("active_iterations", ()))
        for gaining in sorted(gains):
            payload = gains[gaining]
            moved_ghosts = tuple(sorted(
                g for g in ghosts if target.owner(g) == gaining))
            yield from self._coordinate(
                info, gaining, "absorb_handoff", tuple(payload["adds"]),
                tuple(payload["removes"]), moved_ghosts, iterations)
        return delta["version"]

    def _wait_quiescent(self, info: CollectionInfo,
                        shard: NodeId) -> Generator:
        """Poll ``shard`` until no WAL intent for this collection is
        pending (bounded; raises FailureException so the coordinator's
        retry loop takes over)."""
        for _ in range(80):
            pending = yield from self._coordinate(
                info, shard, "pending_intents", timeout=2.0)
            if pending == 0:
                return
            yield Sleep(0.05)
        raise FailureException(
            f"{shard} did not quiesce {info.coll_id!r} for migration")

    # ------------------------------------------------------------------
    # ground truth (the checker's God's-eye view; not used by clients)
    # ------------------------------------------------------------------
    def true_members(self, coll_id: str) -> frozenset[Element]:
        """The paper's s_σ for the current state σ.

        For a sharded collection each name's truth is what its *current
        ring owner* lists: a pre-copied entry at a migration target, or
        a not-yet-dropped entry at a post-cutover source, is a copy —
        never authoritative — so a remove acknowledged by the owner is
        never resurrected by a stale partition mid-rebalance.
        """
        return self._current_value(self.collection_info(coll_id))

    def _current_value(self, info: CollectionInfo) -> frozenset[Element]:
        # The ground-truth twin of the client's single-home vs
        # scatter-gather read: one home's value is the value; a sharded
        # registry's is merged owner by owner.
        if not info.is_sharded:
            return self.servers[info.primary].collections[info.coll_id].value()
        # Each shard's owned view stands until a write changes what that
        # shard owns or the ring is swapped, and the views are disjoint
        # (a name has one owner), so while all of them are the objects
        # last merged, the merged value is the object last returned.
        views = self._partition_views(info)
        merged = info._merged
        if (merged is None or len(merged[0]) != len(views)
                or not all(map(is_, merged[0], views))):
            merged = info._merged = (views, frozenset().union(*views))
        return merged[1]

    def _partition_views(
            self, info: CollectionInfo) -> tuple[frozenset[Element], ...]:
        """The disjoint views ``s_σ`` is the union of right now: a single
        home's value, or each ring node's owned view of its partition."""
        if info.shard_map is None:
            return (self.servers[info.primary].collections[info.coll_id].value(),)
        ring = info.shard_map.ring
        return tuple([state.members.owned(ring, shard) for shard in ring.nodes
                      if (state := self.servers[shard].collections.get(
                          info.coll_id)) is not None])

    def partition_states(
        self, coll_id: str
    ) -> list[tuple[NodeId, "CollectionState"]]:
        """``(node, state)`` for every authoritative partition currently
        hosted — the iteration surface for repair, scrub, and invariants."""
        pairs = []
        for node in self.collection_info(coll_id).partition_nodes():
            state = self.servers[node].collections.get(coll_id)
            if state is not None:
                pairs.append((node, state))
        return pairs

    def referenced_oids(self) -> set:
        """Every oid some collection still answers for — as a member, a
        tombstoned removal, or an element of a pending intent.  A live
        object outside this set is the debris of a failed add."""
        referenced: set = set()
        for coll_id in self.collections:
            for _, state in self.partition_states(coll_id):
                referenced |= {e.oid for e in state.members.values()}
                referenced |= {e.oid for _, e in state.removed.values()}
        for server in self.servers.values():
            for record in server.wal.pending():
                referenced |= {e.oid for e in record.elements}
        return referenced

    def reachable_members(self, coll_id: str, observer: NodeId) -> frozenset[Element]:
        """The paper's reachable(s_σ): members whose data ``observer`` can reach."""
        return self.reachable_of(self.true_members(coll_id), observer)

    def reachable_of(self, members: frozenset[Element], observer: NodeId) -> frozenset[Element]:
        """Reachability filter applied to an arbitrary member set.

        A member's data is reachable if *any* node holding a live copy —
        the home or an object replica — is reachable from ``observer``;
        the paper's ``reachable`` is about data accessibility, not about
        one distinguished server being up.
        """
        if not self.net.node(observer).up:
            return frozenset()
        return frozenset(
            e for e in members
            if any(self._copy_reachable(e, loc, observer) for loc in e.locations)
        )

    def _copy_reachable(self, element: Element, loc: NodeId, observer: NodeId) -> bool:
        if not (loc == observer or self.net.can_reach(observer, loc)):
            return False
        if loc == element.home:
            return True    # membership implies a live home object
        server = self.servers.get(loc)
        return server is not None and server.has_object(element.oid)

    def membership_history(self, coll_id: str) -> list[tuple[float, frozenset[Element]]]:
        """``(time, s_σ)`` at every change of the value, oldest first."""
        info = self.collection_info(coll_id)
        return info.merged_history(info.history)

    # ------------------------------------------------------------------
    # change notification
    # ------------------------------------------------------------------
    def on_change(self, callback: Callable[[], None]) -> Callable[[], None]:
        """Subscribe to membership/connectivity changes; returns unsubscribe."""
        self._listeners.append(callback)

        def unsubscribe() -> None:
            try:
                self._listeners.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    def _membership_changed(self, coll_id: str) -> None:
        info = self.collection_info(coll_id)
        views = self._partition_views(info)
        last = info.history[-1][1]
        smap = info.shard_map
        ring = None if smap is None else smap.ring
        if ring is info._history_ring and len(views) == len(last):
            # Same partitions: the value moved iff a view did, and the
            # tuple compare skips every view that is the last entry's
            # object (C-level, identity first).
            changed = views != last
        else:       # a cutover, or a partition hosted since: the values
            changed = frozenset().union(*views) != frozenset().union(*last)
        if changed:
            info.history.append((self.now, views))
            info._history_ring = ring
        self._notify()

    def _notify(self) -> None:
        for callback in list(self._listeners):
            callback()

    # ------------------------------------------------------------------
    # invariant checking (used by the test suite's soak runs)
    # ------------------------------------------------------------------
    def check_invariants(self) -> list[str]:
        """Cross-component invariants that must hold at quiescence.

        Returns human-readable problem descriptions (empty = healthy).
        "Quiescence" means no mutation RPC is mid-flight: during a
        remove, the object is tombstoned one step before the membership
        entry goes, so invariant 1 is momentarily violated by design.
        """
        problems: list[str] = []
        for coll_id, info in self.collections.items():
            partitions = self.partition_states(coll_id)
            current = self._current_value(info)
            for shard, state in partitions:
                # 1. every member's data object exists at its home
                for name, element in state.members.items():
                    server = self.servers.get(element.home)
                    if server is None or not server.has_object(element.oid):
                        problems.append(
                            f"{coll_id}: member {element} has no live object at its home")
                # 2. ghosts are pending members
                for ghost_name in state.ghosts:
                    if ghost_name not in state.members:
                        problems.append(
                            f"{coll_id}: ghost {ghost_name!r} is not a member")
                # 5. crash consistency of removals: a tombstoned element
                #    has no live copy anywhere (no orphans escaped the
                #    erase or its roll-forward).  Skip a tombstone whose
                #    exact element is currently a member again (a handoff
                #    keeps the old tombstone next to the re-absorbed
                #    member) — that element is alive, not an orphan.
                for name, (_, element) in state.removed.items():
                    if element in current:
                        continue
                    for holder in element.locations:
                        server = self.servers.get(holder)
                        if server is not None and server.has_object(element.oid):
                            problems.append(
                                f"{coll_id}: removed element {element} still has a "
                                f"live copy on {holder} (orphan)")
            # 3. replicas/mirrors never run ahead of their source; an
            #    up-to-date one agrees exactly
            for node in info.replicas:
                for shard, state in partitions:
                    replica_state = self.servers[node].collections.get(
                        info.mirror_id(shard))
                    if replica_state is None:
                        continue
                    if (replica_state.version > state.version
                            and replica_state.epoch == state.epoch):
                        problems.append(
                            f"{coll_id}: replica {node} at v{replica_state.version} "
                            f"is ahead of primary {shard} v{state.version}")
                    elif (replica_state.version == state.version
                          and replica_state.epoch == state.epoch
                          and replica_state.members != state.members):
                        problems.append(
                            f"{coll_id}: replica {node} disagrees with {shard} "
                            "at the same version")
            # 4. the recorded history ends at the current truth
            if info.merged_history(info.history[-1:])[0][1] != current:
                problems.append(
                    f"{coll_id}: membership history is stale")
            # 8. shard placement: every listed member sits at a shard the
            #    map legitimizes (its current owner, or the pending owner
            #    while a migration is pre-copying) — no orphaned entries,
            #    no key owned by a node off the ring.
            if info.is_sharded:
                smap = info.shard_map
                holders: dict[str, list[NodeId]] = {}
                for shard, state in partitions:
                    for name, element in state.members.items():
                        holders.setdefault(name, []).append(shard)
                        if shard not in smap.legitimate_holders(name):
                            problems.append(
                                f"{coll_id}: member {name!r} is listed at {shard}, "
                                f"which does not own it "
                                f"(owner {smap.shard_of(name)})")
                # 9. no double-owned key: a name at two partitions is
                #    legal only mid-migration (old owner + pending owner)
                #    and only with identical elements.
                for name, where in sorted(holders.items()):
                    if len(where) <= 1:
                        continue
                    legit = smap.legitimate_holders(name)
                    elements = {
                        self.servers[s].collections[coll_id].members[name]
                        for s in where
                    }
                    if not set(where) <= legit or len(elements) != 1:
                        problems.append(
                            f"{coll_id}: member {name!r} is double-owned "
                            f"by {sorted(where)} (legitimate: {sorted(legit)})")
                # 10. no orphaned range: every ring node hosts a
                #     partition; a node off the ring holds no members
                #     once its drop has settled.
                hosted = {shard for shard, _ in partitions}
                for shard in smap.shards:
                    if shard not in hosted:
                        problems.append(
                            f"{coll_id}: ring node {shard} hosts no partition "
                            "(orphaned key range)")
                on_ring = info.partition_nodes()
                for node, server in sorted(self.servers.items()):
                    if node in on_ring:
                        continue
                    stale = server.collections.get(coll_id)
                    if stale is not None and stale.is_primary and stale.members:
                        problems.append(
                            f"{coll_id}: {node} is off the ring but still lists "
                            f"{len(stale.members)} members (undropped range)")
        # 6. no intent is left pending on an up node: at quiescence every
        #    interrupted mutation must have been rolled forward (by
        #    recovery or scrub) or cleanly aborted
        for node, server in sorted(self.servers.items()):
            if not self.net.node(node).up:
                continue
            for record in server.wal.pending():
                if record.in_flight:
                    continue   # a replay is actively working on it
                problems.append(f"{node}: {record} left pending at quiescence")
        # 7. no orphaned objects: every live object is referenced by some
        #    collection — as a member, a tombstoned removal, or an element
        #    of a pending intent.  A failed add whose membership never
        #    landed must not leak its copies forever (the client's
        #    best-effort cleanup or the scrub daemon's GC pass reclaims
        #    them).
        referenced = self.referenced_oids()
        for node, server in sorted(self.servers.items()):
            for oid in sorted(server.objects):
                obj = server.objects[oid]
                if not obj.deleted and oid not in referenced:
                    problems.append(
                        f"{node}: live object {oid!r} is referenced by no "
                        "collection (orphan from a failed add)")
        return problems

    # ------------------------------------------------------------------
    def server(self, node: NodeId) -> ObjectServer:
        try:
            return self.servers[node]
        except KeyError:
            raise SimulationError(f"no server on node {node!r}") from None

    def collection_info(self, coll_id: str) -> CollectionInfo:
        info = self.collections.get(coll_id)
        if info is None:
            raise NoSuchCollectionError(f"unknown collection {coll_id!r}")
        return info

    def __repr__(self) -> str:
        return f"World(nodes={len(self.servers)}, collections={sorted(self.collections)})"
