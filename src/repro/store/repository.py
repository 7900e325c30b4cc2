"""Client-side repository API.

A :class:`Repository` is what a weak-set implementation holds: a view of
the world *from one client node*, speaking only RPC.  It never reads
ground truth — all its information arrives via (possibly failing,
possibly stale) remote calls, which is precisely what makes the
implementations honest subjects for the specification checker.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional

from ..errors import (DisconnectedError, FailureException, ServerBusyFailure,
                      TimeoutFailure, UnreachableObjectFailure,
                      WrongShardFailure)
from ..net.address import NodeId
from ..net.resilience import AdaptiveLimiter, ResilientClient
from ..net.wire import Blob, unwrap
from ..sim.events import Fork, Join
from .cache import ClientCache
from .elements import Element
from .fetchplan import rank_hosts
from .server import ObjectServer
from .world import CollectionInfo, World
from .writeplan import AddSpec, WritePipeline, WriteResult

__all__ = ["Repository", "MembershipView"]


#: how many member listings a world remembers the set of (as many as a
#: codec remembers the size of: ``net.wire._LISTING_ENTRIES``)
_LISTING_SETS = 64


def _unpack_snapshot(reply) -> tuple[int, tuple, bool]:
    """Normalize a ``list_members`` reply.

    A fresh read replies ``(version, members)``; a brownout read
    (served by an overloaded server's degraded path) replies
    ``(version, members, True)``.
    """
    if len(reply) == 3:
        return reply[0], reply[1], bool(reply[2])
    version, members = reply
    return version, members, False


class MembershipView:
    """A membership snapshot as read from some host (maybe stale)."""

    __slots__ = ("coll_id", "version", "members", "source", "read_at",
                 "stale", "shard_versions")

    def __init__(self, coll_id: str, version: int, members: frozenset[Element],
                 source: NodeId, read_at: float, stale: bool = False,
                 shard_versions: Optional[dict] = None):
        self.coll_id = coll_id
        self.version = version
        self.members = members
        self.source = source
        self.read_at = read_at
        #: True when an overloaded server answered from its last
        #: committed snapshot (brownout) instead of doing a fresh read.
        self.stale = stale
        #: For a sharded collection: the per-shard partition versions this
        #: view was assembled from (``version`` is their sum).  None when
        #: the collection has a single home.
        self.shard_versions = shard_versions

    def __repr__(self) -> str:
        degraded = ", stale" if self.stale else ""
        return (f"MembershipView({self.coll_id}, v{self.version}, "
                f"{len(self.members)} members from {self.source}{degraded})")


class _Instruments:
    """The client side's metric instruments, resolved by name once per
    world (by its first :class:`Repository`) and shared by the rest: a
    population builds one repository per session."""

    __slots__ = ("fetch_latency", "cache_hits", "membership_reads",
                 "membership_age", "orphan_cleanups", "stale_served",
                 "stale_age", "scatter_reads", "scatter_retries",
                 "fence_rereads", "reroutes", "failovers")

    def __init__(self, metrics) -> None:
        self.fetch_latency = metrics.histogram("repo.fetch_latency")
        self.cache_hits = metrics.counter("repo.cache_hits")
        self.membership_reads = metrics.counter("repo.membership_reads")
        self.membership_age = metrics.histogram("repo.membership_age")
        self.orphan_cleanups = metrics.counter("write.orphan_cleanups")
        self.stale_served = metrics.counter("offline.stale_served")
        self.stale_age = metrics.histogram("offline.read_age")
        self.scatter_reads = metrics.counter("shard.scatter_reads")
        self.scatter_retries = metrics.counter("shard.scatter_retries")
        self.fence_rereads = metrics.counter("shard.fence_rereads")
        self.reroutes = metrics.counter("shard.write_reroutes")
        self.failovers = metrics.counter("rpc.failovers")


class Repository:
    """RPC-only access to collections and objects from one client node."""

    def __init__(self, world: World, client: NodeId,
                 cache: Optional[ClientCache] = None,
                 rpc_timeout: Optional[float] = None,
                 resilience: Optional[ResilientClient] = None,
                 limiter: Optional[AdaptiveLimiter] = None):
        self.world = world
        self.net = world.net
        self.client = client
        self.cache = cache
        self.rpc_timeout = rpc_timeout
        self.resilience = resilience
        #: AIMD adaptive-concurrency window shared by this client's
        #: fetch and write pipelines (None = static windows only).
        self.limiter = limiter
        self.offline = None               # set by OfflineClient.attach
        self.obs = self.net.kernel.obs
        instruments = world.repository_instruments
        if instruments is None:
            instruments = world.repository_instruments = _Instruments(
                self.obs.metrics)
        self._m = instruments
        #: per-collection, per-shard high-water marks of authoritative
        #: partition versions this client has observed — the fence that
        #: keeps a mirror read from silently travelling backwards.
        self._shard_fences: dict[str, dict[NodeId, int]] = {}

    @property
    def disconnected(self) -> bool:
        """True while an attached OfflineClient is in DISCONNECTED state."""
        return self.offline is not None and self.offline.disconnected

    # ------------------------------------------------------------------
    # host selection
    # ------------------------------------------------------------------
    def placement(self, coll_id: str) -> CollectionInfo:
        """Who owns, holds and mirrors what — assumed to be client-known
        metadata, resolved live (a rebalance cutover is visible to the
        next call)."""
        return self.world.collection_info(coll_id)

    def hosts_of(self, coll_id: str) -> tuple[NodeId, ...]:
        return self.world.collection_info(coll_id).hosts

    def primary_of(self, coll_id: str) -> NodeId:
        return self.world.collection_info(coll_id).primary

    def nearest_host(self, coll_id: str) -> Optional[NodeId]:
        """The reachable host with the lowest expected latency, if any."""
        ranked = self.ranked_hosts(coll_id)
        return ranked[0] if ranked else None

    def ranked_hosts(self, coll_id: str) -> tuple[NodeId, ...]:
        """Reachable hosts of ``coll_id``, closest first (deterministic)."""
        return self._rank(self.hosts_of(coll_id))

    def _rank(self, hosts) -> tuple[NodeId, ...]:
        # Shared with the FetchPlanner: one ranking policy for every
        # host-selection decision.
        return rank_hosts(self.net, self.client, hosts)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read_membership(self, coll_id: str, *, source: str = "nearest",
                        use_cache: bool = False) -> Generator[Any, Any, MembershipView]:
        """Read a membership snapshot.

        ``source`` is ``"primary"`` (authoritative; the expensive atomic
        snapshot Figs 4/5 require), ``"nearest"`` (any reachable replica;
        cheap but possibly stale — the optimistic choice), or a specific
        node name.
        """
        self._m.membership_reads.value += 1
        if self.disconnected:
            return self._stale_membership(coll_id)
        if use_cache and self.cache is not None:
            cached = self.cache.get(("membership", coll_id), self.world.now)
            if cached is not None:
                self._m.cache_hits.value += 1
                # Staleness of the served snapshot: how old the cached
                # view is at the moment a drain consumes it.
                self._m.membership_age.observe(self.world.now - cached.read_at)
                return cached
        if self.placement(coll_id).is_sharded:
            return (yield from self._read_sharded(coll_id, source))
        if source == "primary":
            host = self.primary_of(coll_id)
        elif source == "nearest":
            ranked = self.ranked_hosts(coll_id)
            if not ranked:
                raise UnreachableObjectFailure(
                    f"no host of {coll_id!r} is reachable from {self.client}"
                )
            if (self.resilience is not None
                    and self.resilience.hedge_delay is not None
                    and len(ranked) > 1):
                # Tail-latency insurance: race the two closest replicas,
                # first snapshot wins.  Staleness is already allowed by
                # the weak-set spec, so any replica's answer is valid.
                reply = yield from self.resilience.hedged_call(
                    self.client, ranked[:2], ObjectServer.SERVICE,
                    "list_members", coll_id, timeout=self.rpc_timeout)
                host = self.resilience.last_winner or ranked[0]
                return self._membership_view(coll_id, reply, host)
            host = ranked[0]
        else:
            host = source
        reply = yield from self._call(host, "list_members", coll_id)
        return self._membership_view(coll_id, reply, host)

    def _membership_view(self, coll_id: str, reply,
                         host: NodeId) -> MembershipView:
        """Turn one host's ``list_members`` reply into the (cached) view.

        The view's ``members`` is ``frozenset(listing)``, taken from the
        world's table when this very tuple was read before (an unwritten
        collection's reads share one set: hashed once per listing)."""
        version, listing, degraded = _unpack_snapshot(reply)
        listings = self.world.listing_sets
        entry = listings.get(id(listing))
        if entry is None:
            entry = (listing, frozenset(listing))
            if type(listing) is tuple:    # a list can change under its id
                if len(listings) >= _LISTING_SETS:
                    del listings[next(iter(listings))]    # oldest out
                listings[id(listing)] = entry
        view = MembershipView(coll_id, version, entry[1], host,
                              self.world.now, stale=degraded)
        if self.cache is not None:
            self.cache.put(("membership", coll_id), view, self.world.now)
        return view

    # -- cross-shard scatter-gather reads ------------------------------
    def _read_sharded(self, coll_id: str,
                      source: str) -> Generator[Any, Any, MembershipView]:
        """Assemble one membership view from every shard of ``coll_id``.

        All shards are required (a weak set may be stale, but a view
        silently missing a whole key range would *invent* removals), so
        the read scatters to every shard concurrently and gathers with a
        barrier.  Two fences keep the result coherent:

        * **generation fence** — the map's ``generation`` is snapshotted
          before the fan-out; if a rebalance cut over underneath, the
          whole read is retried rather than returning a view torn
          across two rings;
        * **per-shard version fence** — a mirror answering below the
          partition version this client has already observed triggers an
          authoritative re-read from the shard itself, so one client's
          view of any single shard never travels backwards.
        """
        smap = self.placement(coll_id).shard_map
        self._m.scatter_reads.value += 1
        last_failure: Optional[FailureException] = None
        for _ in range(4):
            generation = smap.generation
            shards = smap.shards
            results: dict[NodeId, Any] = {}
            if len(shards) == 1:
                yield from self._gather_one(coll_id, shards[0], source, results)
            else:
                children = []
                for shard in shards:
                    child = yield Fork(
                        self._gather_one(coll_id, shard, source, results),
                        name=f"scatter:{coll_id}:{shard}")
                    children.append(child)
                for child in children:
                    yield Join(child)
            if smap.generation != generation:
                # A cutover landed mid-read: per-shard replies straddle
                # two rings.  Retry against the new map.
                self._m.scatter_retries.value += 1
                continue
            failures = [r for r in results.values()
                        if isinstance(r, FailureException)]
            if failures:
                last_failure = failures[0]
                raise last_failure
            merged: dict[str, Element] = {}
            shard_versions: dict[NodeId, int] = {}
            any_stale = False
            for shard in shards:
                version, members, degraded = results[shard]
                shard_versions[shard] = version
                any_stale = any_stale or degraded
                for element in members:
                    merged[element.name] = element
            view = MembershipView(
                coll_id, sum(shard_versions.values()),
                frozenset(merged.values()), self.client, self.world.now,
                stale=any_stale, shard_versions=dict(shard_versions))
            if self.cache is not None:
                self.cache.put(("membership", coll_id), view, self.world.now)
            return view
        raise (last_failure or FailureException(
            f"cross-shard read of {coll_id!r} kept tearing across rebalances"))

    def _gather_one(self, coll_id: str, shard: NodeId, source: str,
                    results: dict) -> Generator[Any, Any, None]:
        """Read one shard's partition into ``results`` (its own failures
        are captured, not raised — the gather barrier inspects them)."""
        try:
            results[shard] = yield from self._read_one_shard(
                coll_id, shard, source)
        except FailureException as exc:
            results[shard] = exc

    def _read_one_shard(
        self, coll_id: str, shard: NodeId, source: str
    ) -> Generator[Any, Any, tuple[int, tuple, bool]]:
        info = self.placement(coll_id)
        # The authoritative owner serves "primary", itself by name, and
        # any explicit node that holds no copy of this partition.
        host = shard
        if source == "nearest":
            ranked = self._rank(info.partition_hosts(shard))
            if not ranked:
                raise UnreachableObjectFailure(
                    f"no host of {coll_id!r}'s shard {shard} is reachable "
                    f"from {self.client}")
            host = ranked[0]
        elif source in info.replicas:
            host = source
        state_id = info.state_id(shard, host)
        reply = yield from self._call(host, "list_members", state_id)
        version, members, degraded = _unpack_snapshot(reply)
        fences = self._shard_fences.setdefault(coll_id, {})
        if host != shard and version < fences.get(shard, 0):
            # The mirror is behind a partition version this client has
            # already seen: re-read authoritatively rather than let the
            # per-shard view travel backwards.
            self._m.fence_rereads.value += 1
            reply = yield from self._call(shard, "list_members", coll_id)
            version, members, degraded = _unpack_snapshot(reply)
            host = shard
        if host == shard and version > fences.get(shard, 0):
            fences[shard] = version
        return version, tuple(members), degraded

    def read_shard_membership(
        self, coll_id: str, shard: NodeId, host: NodeId
    ) -> Generator[Any, Any, MembershipView]:
        """Read one shard's partition from one specific host — the shard
        itself (authoritative) or a mirror (its namespaced alias state).
        The quorum protocol builds its per-shard majorities from these."""
        state_id = self.placement(coll_id).state_id(shard, host)
        reply = yield from self._call(host, "list_members", state_id)
        version, members, degraded = _unpack_snapshot(reply)
        return MembershipView(coll_id, version, frozenset(members), host,
                              self.world.now, stale=degraded)

    # -- stale-while-offline serving -----------------------------------
    def _serve_stale(self, key: tuple) -> Optional[tuple[Any, float]]:
        """DISCONNECTED read of cache entry ``key``, however old it is:
        ``(value, age)`` with the staleness accounted for, or ``None``
        when nothing is cached."""
        if self.cache is None:
            return None
        peeked = self.cache.peek(key, self.world.now)
        if peeked is not None:
            self._m.stale_served.value += 1
            self._m.stale_age.observe(peeked[1])
        return peeked

    def _stale_membership(self, coll_id: str) -> MembershipView:
        """DISCONNECTED read: serve the cached view however old it is.

        Explicit disconnected operation trumps both TTL and the caller's
        ``use_cache``/``source`` choice — the network is *known* to be
        absent, so the only alternatives are a stale answer (with its
        age accounted for) or an immediate :class:`DisconnectedError`.
        """
        peeked = self._serve_stale(("membership", coll_id))
        if peeked is None:
            raise DisconnectedError(
                f"disconnected and no cached membership for {coll_id!r}")
        view, age = peeked
        self._m.membership_age.observe(age)
        return view

    def _stale_object(self, element: Element) -> Any:
        peeked = self._serve_stale(("object", element.oid))
        if peeked is None:
            raise DisconnectedError(
                f"disconnected and no cached value for {element.name!r}")
        return peeked[0]

    def fetch(self, element: Element, *,
              use_cache: bool = False) -> Generator[Any, Any, Any]:
        """Fetch an element's data object from its home node.

        Single-element point lookup.  Bulk reads (iterators, prefetch)
        go through :class:`~repro.store.fetchplan.FetchPipeline`, where
        cache policy is a *required* argument; here the default is
        cache-off and callers that care pass ``use_cache`` explicitly.

        Raises a :class:`FailureException` if the home is unreachable and
        :class:`~repro.errors.NoSuchObjectError` if the object has been
        deleted (i.e., the element was removed from the collection).
        Replica failover and hedging are the fetch pipeline's
        (``FetchPipeline(failover=True)``): a point lookup asks the home.
        """
        if self.disconnected:
            return self._stale_object(element)
        if use_cache and self.cache is not None:
            cached = self.cache.get(("object", element.oid), self.world.now)
            if cached is not None:
                self._m.cache_hits.value += 1
                return cached
        tracer = self.obs.tracer
        span = tracer.start("repo.fetch", element=element.name,
                            home=str(element.home))
        try:
            value = yield from self._call(element.home, "get_object",
                                          element.oid)
        except BaseException as exc:
            tracer.finish(span, outcome=type(exc).__name__)
            self._m.fetch_latency.observe(span.duration)
            raise
        tracer.finish(span, outcome="ok")
        self._m.fetch_latency.observe(span.duration)
        value = unwrap(value)  # servers reply in wire Blobs
        if self.cache is not None:
            self.cache.put(("object", element.oid), value, self.world.now)
        return value

    def _hedged_get(self, element: Element,
                    ranked: tuple[NodeId, ...]) -> Generator[Any, Any, Any]:
        """The hedged read of one element, for the fetch pipeline's
        singleton batches: the home's authoritative ``get_object`` first,
        then each ``ranked`` replica's non-authoritative
        ``get_object_replica`` as the hedge delay expires; first reply
        wins."""
        return (yield from self.resilience.hedged_call(
            self.client, (element.home,) + ranked,
            ObjectServer.SERVICE, "get_object", element.oid,
            timeout=self.rpc_timeout,
            method_for={r: "get_object_replica" for r in ranked}))

    def probe(self, element: Element) -> Generator[Any, Any, bool]:
        """Cheaply ask the element's home whether its object still exists."""
        return (yield from self._call(element.home, "has_object", element.oid))

    # ------------------------------------------------------------------
    # writes (always through the primary)
    # ------------------------------------------------------------------
    def add(self, coll_id: str, name: str, value: Any = None,
            home: Optional[NodeId] = None, size: int = 0,
            replicas: tuple[NodeId, ...] = ()) -> Generator[Any, Any, Element]:
        """Create the data object at ``home`` (and any ``replicas``),
        then register membership.  Replica copies are written before the
        member becomes visible, so the failover invariant — live copy
        implies member — holds from the element's first instant."""
        home = home if home is not None \
            else self.placement(coll_id).owner_of(name)
        replicas = tuple(r for r in replicas if r != home)
        element = Element(name=name, oid=self.world.fresh_oid(name), home=home,
                          replicas=replicas)
        # Ship the body as a Blob so the put's wire cost includes the
        # object's declared size, not just its stand-in value.
        body = Blob(value, size)
        yield from self._call(home, "put_object", element.oid, body, size)
        placed = [home]
        try:
            for replica in replicas:
                yield from self._call(replica, "put_object", element.oid,
                                      body, size)
                placed.append(replica)
            yield from self._mutate_member(coll_id, "add_member", element)
        except FailureException:
            # A copy landed but the element never became (provably) a
            # member: reclaim the copies so the failed add leaves no
            # orphaned objects behind.  (If the membership RPC's *ack*
            # was lost after the server applied it, this leaves a
            # dangling member — which the scrub daemon heals; both
            # routes converge on "not a member".)
            yield from self._cleanup_orphans(element, tuple(placed))
            raise
        return element

    def _cleanup_orphans(self, element: Element,
                         placed: tuple[NodeId, ...]) -> Generator[Any, Any, None]:
        """Best-effort deletion of a failed add's landed copies.

        Single attempt per copy and failures are swallowed — the
        caller is already propagating the add's failure, and the repair
        daemon's orphan-GC pass reclaims whatever this misses.
        """
        for dest in placed:
            self._m.orphan_cleanups.value += 1
            try:
                yield from self._call(dest, "delete_object", element.oid,
                                      max_attempts=1)
            except FailureException:
                pass

    def remove(self, coll_id: str, element: Element) -> Generator[Any, Any, None]:
        yield from self._mutate_member(coll_id, "remove_member", element)

    def _mutate_member(self, coll_id: str, method: str,
                       element: Element) -> Generator[Any, Any, Any]:
        """Route a membership mutation to the element's owning node.

        ``WrongShardFailure`` means the placement this client resolved
        was superseded by a rebalance cutover between resolution and
        serve time; it is deliberately not retried by the resilience
        layer (same host cannot succeed), so the funnel re-resolves the
        live map and re-routes — one extra hop per cutover raced."""
        last: Optional[WrongShardFailure] = None
        for _ in range(4):
            owner = self.placement(coll_id).owner_of(element.name)
            try:
                return (yield from self._call(owner, method, coll_id, element))
            except WrongShardFailure as exc:
                self._m.reroutes.value += 1
                last = exc
        raise last

    # ------------------------------------------------------------------
    # bulk writes (batched + pipelined; see repro.store.writeplan)
    # ------------------------------------------------------------------
    def add_many(self, coll_id: str, specs: Iterable[AddSpec | str], *,
                 window: int = 4, batch_size: int = 8,
                 max_batch_bytes: Optional[int] = None,
                 on_failure: str = "raise"
                 ) -> Generator[Any, Any, list[Element]]:
        """Add many elements through a :class:`WritePipeline`.

        ``specs`` are :class:`AddSpec` entries (bare strings mean "name
        only, defaults for the rest").  Same-destination puts coalesce
        into ``put_objects`` multi-puts with replica fan-out issued
        concurrently; registrations coalesce into group-committed
        ``add_members`` batches.  ``on_failure="raise"`` re-raises the
        first failure after the whole pipeline drains (every operation
        still runs — no partial abandonment); ``"skip"`` tolerates
        failures and returns only the elements that were added.
        ``max_batch_bytes`` caps each batch's estimated wire bytes
        alongside the item cap — on a bandwidth-constrained link an
        over-full batch monopolises the FIFO.
        """
        results = yield from self._run_pipeline(
            coll_id, [s if isinstance(s, AddSpec) else AddSpec(s)
                      for s in specs],
            (), window=window, batch_size=batch_size,
            max_batch_bytes=max_batch_bytes)
        self._check_failures(results, on_failure)
        return [r.element for r in results if r.ok]

    def remove_many(self, coll_id: str, elements: Iterable[Element], *,
                    window: int = 4, batch_size: int = 8,
                    max_batch_bytes: Optional[int] = None,
                    on_failure: str = "raise"
                    ) -> Generator[Any, Any, int]:
        """Remove many elements via group-committed ``remove_members``
        batches; returns how many removals were acknowledged."""
        results = yield from self._run_pipeline(
            coll_id, (), tuple(elements), window=window,
            batch_size=batch_size, max_batch_bytes=max_batch_bytes)
        self._check_failures(results, on_failure)
        return sum(1 for r in results if r.ok)

    def _run_pipeline(self, coll_id: str, specs, elements, *,
                      window: int, batch_size: int,
                      max_batch_bytes: Optional[int] = None
                      ) -> Generator[Any, Any, list[WriteResult]]:
        pipeline = WritePipeline(self, coll_id, window=window,
                                 batch_size=batch_size,
                                 max_batch_bytes=max_batch_bytes)
        pipeline.start()
        try:
            for spec in specs:
                pipeline.submit_add(spec)
            for element in elements:
                pipeline.submit_remove(element)
            results = yield from pipeline.drain()
        finally:
            pipeline.stop()
        return results

    @staticmethod
    def _check_failures(results: list[WriteResult], on_failure: str) -> None:
        if on_failure == "skip":
            return
        if on_failure != "raise":
            raise ValueError(f"unknown on_failure mode {on_failure!r}")
        for result in results:
            if not result.ok and result.error is not None:
                raise result.error

    def replace(self, coll_id: str, element: Element, name: str,
                value: Any = None, home: Optional[NodeId] = None,
                size: int = 0) -> Generator[Any, Any, Element]:
        """Item mutation, the paper's way.

        "we will assume that items in the set do not change; we could
        model this by the deletion of an old item from the set followed
        by the addition of a new item."  Removes ``element`` then adds a
        fresh one (new name or same-name-new-oid is up to the caller's
        ``name``); returns the new element.
        """
        yield from self.remove(coll_id, element)
        return (yield from self.add(coll_id, name, value,
                                    home if home is not None else element.home,
                                    size, replicas=element.replicas))

    def seal(self, coll_id: str) -> Generator[Any, Any, None]:
        """Seal the collection — every shard of a sharded one, in ring
        order (one home otherwise)."""
        for node in self.placement(coll_id).lock_nodes():
            yield from self._call(node, "seal_collection", coll_id)

    # ------------------------------------------------------------------
    # §3.3 iteration registration
    # ------------------------------------------------------------------
    def begin_iteration(self, coll_id: str) -> Generator[Any, Any, str]:
        token = self.world.fresh_iter_token(self.client)
        registered: list[NodeId] = []
        try:
            for node in self.placement(coll_id).partition_nodes():
                yield from self._call(node, "begin_iteration", coll_id, token)
                registered.append(node)
        except FailureException:
            # Partial registration would pin ghosts forever on the nodes
            # that did hear us: best-effort deregister, then propagate.
            for node in registered:
                try:
                    yield from self._call(node, "end_iteration",
                                          coll_id, token, max_attempts=1)
                except FailureException:
                    pass
            raise
        return token

    def end_iteration(self, coll_id: str, token: str) -> Generator[Any, Any, int]:
        purged = 0
        for node in self.placement(coll_id).partition_nodes():
            purged += yield from self._call(node, "end_iteration", coll_id, token)
        return purged

    # ------------------------------------------------------------------
    def _call(self, host: NodeId, method: str, *args: Any,
              max_attempts: Optional[int] = None) -> Generator[Any, Any, Any]:
        """The one RPC funnel.  ``max_attempts=1`` is the single-attempt
        form the fetch pipeline's failover sweep and best-effort cleanups
        use: their alternates *are* the retry, and backing off between
        replicas would burn the budget (``None`` = the resilience
        policy's count)."""
        if self.disconnected:
            # Fail fast in zero simulated time: while DISCONNECTED, no
            # retry/backoff budget is worth burning — the client *chose*
            # to be off the network.
            raise DisconnectedError(
                f"{self.client} is disconnected (call to {host}.{method})")
        if self.resilience is not None:
            return (yield from self.resilience.call(
                self.client, host, ObjectServer.SERVICE, method, *args,
                timeout=self.rpc_timeout, max_attempts=max_attempts,
            ))
        return (yield from self.net.call(
            self.client, host, ObjectServer.SERVICE, method, *args,
            timeout=self.rpc_timeout,
        ))

    def _feed_limiter(self, exc: Optional[BaseException],
                      latency: float) -> None:
        """Report one batch-RPC outcome of either pipeline to this
        client's AIMD window.

        Sheds and timeouts are congestion evidence (multiplicative
        decrease); clean completions are room-to-grow evidence
        (additive increase).  Other failures — crash, partition,
        application errors — say nothing about *load* and feed nothing.
        """
        limiter = self.limiter
        if limiter is None:
            return
        if exc is None:
            limiter.on_success(latency, self.world.now)
        elif isinstance(exc, (ServerBusyFailure, TimeoutFailure)):
            limiter.on_overload(self.world.now)

    def __repr__(self) -> str:
        return f"Repository(client={self.client!r})"
