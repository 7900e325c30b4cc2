"""Consistent-hash sharding of a collection's member registry.

Every collection used to keep its whole membership map on one home
server — the hard ceiling on the ROADMAP's "millions of users" goal:
the population engine (E22) and the admission controller (E23) can
shed or queue load at the single primary, but never *spread* it.  The
paper's ``reachable(x)`` semantics already decouple an element's
existence from its accessibility per object; this module extends the
same decoupling to the registry itself.

Two pieces:

:class:`HashRing`
    A classical consistent-hash ring with virtual nodes and seeded,
    fully deterministic placement (BLAKE2 positions — never Python's
    randomized ``hash()``).  ``owner(name)`` maps an element name to
    the shard server owning its registry entry; adding or removing a
    node moves only the keys adjacent to that node's virtual points.

:class:`ShardMap`
    The client-resolvable placement record carried by
    :class:`~repro.store.world.CollectionInfo`: the current ring, a
    cutover ``generation`` counter (bumped atomically by a rebalance —
    readers fence on it to detect a torn cross-shard scatter), and the
    pending target ring while a live migration is in flight.

Shard *partitions* are ordinary :class:`~repro.store.server.CollectionState`
instances: each shard server hosts its slice of the registry under the
plain collection id (so every existing RPC — ``list_members``,
``add_member(s)``, ``sync_delta``, the ghost protocol — works per
shard unchanged), and a collection replica mirrors each shard's
partition under the namespaced id :func:`shard_state_id` so one mirror
node can follow many shards via the existing anti-entropy pull.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional

from ..errors import SimulationError
from ..net.address import NodeId

__all__ = ["HashRing", "ShardMap", "shard_state_id"]


def shard_state_id(coll_id: str, shard: NodeId) -> str:
    """The state id a mirror node files shard ``shard``'s partition under."""
    return f"{coll_id}@{shard}"


def _position(token: str) -> int:
    """A stable 64-bit ring position (independent of PYTHONHASHSEED)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent hashing with virtual nodes and seeded placement.

    Immutable: rebalancing constructs the successor ring with
    :meth:`with_node` / :meth:`without_node` and swaps it in atomically
    at cutover.  Placement depends only on ``(seed, node ids, vnodes)``,
    so every process — clients, servers, the invariant checker — derives
    the identical key→shard mapping.

    Being immutable, a ring remembers each ``owner(name)`` it has worked
    out, so a name is hashed at most once per ring instance; successor
    rings and unpickled copies start with nothing remembered.
    """

    #: the ring's pickled form (see ``__getstate__``)
    _WIRE = ("nodes", "vnodes", "seed", "_points", "_keys")
    __slots__ = _WIRE + ("_ordered", "_owners")

    def __init__(self, nodes: Iterable[NodeId], *, vnodes: int = 16,
                 seed: int = 0):
        nodes = tuple(nodes)
        if not nodes:
            raise SimulationError("a hash ring needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise SimulationError(f"duplicate node ids in ring: {nodes!r}")
        if vnodes < 1:
            raise SimulationError(f"vnodes must be >= 1, got {vnodes}")
        self.nodes = tuple(sorted(nodes))
        self.vnodes = vnodes
        self.seed = seed
        points = []
        for node in self.nodes:
            for i in range(vnodes):
                points.append((_position(f"{seed}|{node}|{i}"), node))
        points.sort()
        self._points = tuple(points)
        self._keys = [p for p, _ in points]
        # ``points`` is sorted, so first occurrence = first virtual point
        self._ordered = tuple(dict.fromkeys(node for _, node in points))
        self._owners: dict[str, NodeId] = {}

    # -- the wire --------------------------------------------------------
    def __getstate__(self):
        # A ring crosses the wire (``freeze_range`` / ``drop_range``) and
        # the codec sizes it by pickling: what has been asked of it must
        # not move ``net.bytes_sent``, so the pickled form is exactly the
        # five slots it always was, in ``object.__getstate__``'s shape.
        return None, {slot: getattr(self, slot) for slot in self._WIRE}

    def __setstate__(self, state) -> None:
        wire = state[1]
        self.__init__(wire["nodes"], vnodes=wire["vnodes"], seed=wire["seed"])

    # -- lookup ----------------------------------------------------------
    def owner(self, name: str) -> NodeId:
        """The shard owning ``name``'s registry entry (clockwise successor)."""
        try:
            return self._owners[name]
        except KeyError:
            pos = _position(f"{self.seed}|{name}")
            index = bisect_right(self._keys, pos) % len(self._points)
            owner = self._owners[name] = self._points[index][1]
            return owner

    def ordered_nodes(self) -> tuple[NodeId, ...]:
        """Nodes by their first virtual point — the canonical *ring order*.

        The pessimistic variants acquire per-shard locks in exactly this
        order, which makes cross-shard lock acquisition deadlock-free
        (every client walks the cycle from the same fixed starting
        point).
        """
        return self._ordered

    # -- successor rings -------------------------------------------------
    def with_node(self, node: NodeId) -> "HashRing":
        if node in self.nodes:
            raise SimulationError(f"{node!r} is already on the ring")
        return HashRing(self.nodes + (node,), vnodes=self.vnodes,
                        seed=self.seed)

    def without_node(self, node: NodeId) -> "HashRing":
        if node not in self.nodes:
            raise SimulationError(f"{node!r} is not on the ring")
        if len(self.nodes) == 1:
            raise SimulationError("cannot remove the last shard from the ring")
        return HashRing(tuple(n for n in self.nodes if n != node),
                        vnodes=self.vnodes, seed=self.seed)

    def __contains__(self, node: object) -> bool:
        return node in self.nodes

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, HashRing) and self.nodes == other.nodes
                and self.vnodes == other.vnodes and self.seed == other.seed)

    def __hash__(self) -> int:
        return hash((self.nodes, self.vnodes, self.seed))

    def __repr__(self) -> str:
        return (f"HashRing({list(self.nodes)}, vnodes={self.vnodes}, "
                f"seed={self.seed})")


@dataclass
class ShardMap:
    """Client-known placement metadata for one sharded collection.

    ``generation`` increments exactly once per completed cutover; a
    scatter-gather reader snapshots it before fanning out and retries
    the whole read if it changed underneath — the fence that keeps a
    cross-shard membership view from being torn across a rebalance.
    ``migration`` holds the pending target ring while a rebalance is in
    flight (``None`` otherwise); the invariant checker uses it to
    distinguish a legitimate pre-copied key (present at the old owner
    *and* its future owner) from a genuinely double-owned one.
    """

    ring: HashRing
    generation: int = 0
    migration: Optional[HashRing] = None

    @property
    def shards(self) -> tuple[NodeId, ...]:
        return self.ring.nodes

    def shard_of(self, name: str) -> NodeId:
        """The shard currently owning ``name``'s registry entry."""
        return self.ring.owner(name)

    def legitimate_holders(self, name: str) -> frozenset[NodeId]:
        """Shards allowed to list ``name`` right now: the current owner,
        plus the pending owner while a migration is pre-copying."""
        holders = {self.ring.owner(name)}
        if self.migration is not None:
            holders.add(self.migration.owner(name))
        return frozenset(holders)

    def __repr__(self) -> str:
        pending = f", migrating->{list(self.migration.nodes)}" if self.migration else ""
        return (f"ShardMap({list(self.ring.nodes)}, gen={self.generation}"
                f"{pending})")
