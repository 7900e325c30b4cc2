"""Network topology: nodes, links, routing, and connectivity queries.

The topology is the *physical* layer: which nodes exist, which links
join them, and how long a message takes along its route.  Failure
effects compose as follows:

* a ``Link`` can be down (link failure),
* a node can be crashed (tracked by :class:`repro.net.node.Node`),
* the :class:`repro.net.partitions.PartitionManager` can overlay a
  logical partition (modelling, e.g., a mobile client disconnecting).

Connectivity between two nodes requires a path of up links between up
nodes within one partition group.  Routing is shortest-path by expected
latency (Dijkstra), with the result cached until the topology changes.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Optional

from ..errors import SimulationError
from .address import NodeId
from .link import FixedLatency, LatencyModel, Link

__all__ = ["Topology", "full_mesh", "wan_clusters"]


class Topology:
    """A mutable graph of nodes and undirected links."""

    def __init__(self) -> None:
        self._nodes: dict[NodeId, bool] = {}          # node -> is_up
        self._links: dict[frozenset[NodeId], Link] = {}
        self._adjacency: dict[NodeId, set[NodeId]] = {}
        self.version = 0                               # bumped on any change
        self._route_cache: dict[tuple[NodeId, NodeId], Optional[list[Link]]] = {}
        self._cache_version = -1

    # -- construction ----------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        if node in self._nodes:
            raise SimulationError(f"duplicate node {node!r}")
        self._nodes[node] = True
        self._adjacency[node] = set()
        self._touch()

    def add_link(self, a: NodeId, b: NodeId, latency: Optional[LatencyModel] = None,
                 bandwidth: float = 0.0) -> Link:
        if a not in self._nodes or b not in self._nodes:
            raise SimulationError(f"link endpoints must exist: {a!r}, {b!r}")
        if a == b:
            raise SimulationError(f"self-link on {a!r}")
        key = frozenset((a, b))
        if key in self._links:
            raise SimulationError(f"duplicate link {a!r}<->{b!r}")
        link = Link(a, b, latency or FixedLatency(0.01), bandwidth=bandwidth)
        self._links[key] = link
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)
        self._touch()
        return link

    # -- introspection ---------------------------------------------------
    def nodes(self) -> list[NodeId]:
        return list(self._nodes)

    def links(self) -> list[Link]:
        return list(self._links.values())

    def link_between(self, a: NodeId, b: NodeId) -> Optional[Link]:
        return self._links.get(frozenset((a, b)))

    def neighbors(self, node: NodeId) -> set[NodeId]:
        return set(self._adjacency.get(node, ()))

    # -- node and link state ----------------------------------------------
    def node_is_up(self, node: NodeId) -> bool:
        return self._nodes.get(node, False)

    def set_node_up(self, node: NodeId, up: bool) -> None:
        if node not in self._nodes:
            raise SimulationError(f"unknown node {node!r}")
        if self._nodes[node] != up:
            self._nodes[node] = up
            self._touch()

    def set_link_up(self, a: NodeId, b: NodeId, up: bool) -> None:
        link = self.link_between(a, b)
        if link is None:
            raise SimulationError(f"no link {a!r}<->{b!r}")
        if link.up != up:
            link.up = up
            self._touch()

    def _touch(self) -> None:
        self.version += 1

    # -- routing -----------------------------------------------------------
    def route(self, src: NodeId, dst: NodeId) -> Optional[list[Link]]:
        """Shortest up-path from ``src`` to ``dst`` (None if disconnected).

        Both endpoints and every intermediate node must be up.  The path
        minimizes summed *expected* link latency.
        """
        if src not in self._nodes or dst not in self._nodes:
            raise SimulationError(f"unknown endpoint: {src!r} or {dst!r}")
        if not (self._nodes[src] and self._nodes[dst]):
            return None
        if src == dst:
            return []
        self._maybe_flush_cache()
        key = (src, dst)
        if key in self._route_cache:
            return self._route_cache[key]
        path = self._dijkstra(src, dst)
        self._route_cache[key] = path
        self._route_cache[(dst, src)] = list(reversed(path)) if path else path
        return path

    def _maybe_flush_cache(self) -> None:
        if self._cache_version != self.version:
            self._route_cache.clear()
            self._cache_version = self.version

    def _dijkstra(self, src: NodeId, dst: NodeId) -> Optional[list[Link]]:
        dist: dict[NodeId, float] = {src: 0.0}
        prev: dict[NodeId, Link] = {}
        heap: list[tuple[float, NodeId]] = [(0.0, src)]
        visited: set[NodeId] = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            if node == dst:
                break
            for nb in self._adjacency[node]:
                if not self._nodes[nb]:
                    continue
                link = self._links[frozenset((node, nb))]
                if not link.up:
                    continue
                nd = d + link.latency.expected()
                if nd < dist.get(nb, float("inf")):
                    dist[nb] = nd
                    prev[nb] = link
                    heapq.heappush(heap, (nd, nb))
        if dst not in prev and src != dst:
            return None
        path: list[Link] = []
        node = dst
        while node != src:
            link = prev[node]
            path.append(link)
            node = link.other(node)
        path.reverse()
        return path

    def __repr__(self) -> str:
        return f"Topology(nodes={len(self._nodes)}, links={len(self._links)})"


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def full_mesh(names: Iterable[NodeId],
              latency: Optional[LatencyModel] = None,
              latency_for: Optional[Callable[[NodeId, NodeId], LatencyModel]] = None,
              bandwidth: float = 0.0) -> Topology:
    """Every pair of nodes directly linked."""
    topo = Topology()
    nodes = list(names)
    for n in nodes:
        topo.add_node(n)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            model = latency_for(a, b) if latency_for else (latency or FixedLatency(0.01))
            topo.add_link(a, b, model, bandwidth=bandwidth)
    return topo


def wan_clusters(cluster_sizes: list[int],
                 intra_latency: Optional[LatencyModel] = None,
                 inter_latency: Optional[LatencyModel] = None,
                 prefix: str = "n",
                 intra_bandwidth: float = 0.0,
                 inter_bandwidth: float = 0.0) -> Topology:
    """Clusters of nearby nodes joined by slow wide-area links.

    Models the paper's environment: objects scattered over "many
    organizations", some close (LAN) and some far (WAN).  Each cluster is
    a full mesh of fast links; cluster heads form a full mesh of slow
    links.  Node names are ``{prefix}{cluster}.{index}``.  Bandwidths
    (bytes/second; 0 = infinite) apply per link class, mirroring the
    latency split.
    """
    intra = intra_latency or FixedLatency(0.002)
    inter = inter_latency or FixedLatency(0.080)
    topo = Topology()
    heads: list[NodeId] = []
    for c, size in enumerate(cluster_sizes):
        members = [f"{prefix}{c}.{i}" for i in range(size)]
        for m in members:
            topo.add_node(m)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                topo.add_link(a, b, intra, bandwidth=intra_bandwidth)
        if members:
            heads.append(members[0])
    for i, a in enumerate(heads):
        for b in heads[i + 1:]:
            topo.add_link(a, b, inter, bandwidth=inter_bandwidth)
    return topo
