"""Logical network partitions.

"These failures may lead to network partitions, which implies that a
process at one node may not be able to access objects residing at a node
in a different partition."

Partitions are modelled as an overlay on top of the physical topology:
each node belongs to exactly one partition group, and messages only flow
between nodes in the same group.  This cleanly models the paper's mobile
client that disconnects while traveling (``isolate``), as well as
arbitrary splits (``split``), independent of which physical links exist.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..errors import SimulationError
from .address import NodeId

__all__ = ["PartitionManager"]

_MAIN_GROUP = 0


class PartitionManager:
    """Tracks which partition group each node currently belongs to."""

    def __init__(self, nodes: Iterable[NodeId] = ()):
        self._group: dict[NodeId, int] = {n: _MAIN_GROUP for n in nodes}
        self._next_group = 1
        #: bumped on every change (half of the reachability table's epoch)
        self.version = 0

    def register(self, node: NodeId) -> None:
        self._group.setdefault(node, _MAIN_GROUP)

    # -- queries -----------------------------------------------------------
    def group_of(self, node: NodeId) -> int:
        try:
            return self._group[node]
        except KeyError:
            raise SimulationError(f"unknown node {node!r}") from None

    def same_partition(self, a: NodeId, b: NodeId) -> bool:
        return self.group_of(a) == self.group_of(b)

    def groups(self) -> dict[int, set[NodeId]]:
        result: dict[int, set[NodeId]] = {}
        for node, group in self._group.items():
            result.setdefault(group, set()).add(node)
        return result

    def is_partitioned(self) -> bool:
        return len({g for g in self._group.values()}) > 1

    # -- mutation ------------------------------------------------------------
    def split(self, *sides: Iterable[NodeId]) -> None:
        """Split the network into the given groups.

        Nodes not mentioned stay in the main group.  Mentioning a node on
        two sides is an error.
        """
        seen: set[NodeId] = set()
        new_groups: list[set[NodeId]] = []
        for side in sides:
            group = set(side)
            overlap = group & seen
            if overlap:
                raise SimulationError(f"nodes on two sides of a split: {sorted(overlap)}")
            unknown = group - self._group.keys()
            if unknown:
                raise SimulationError(f"unknown nodes in split: {sorted(unknown)}")
            seen |= group
            new_groups.append(group)
        for group in new_groups:
            gid = self._next_group
            self._next_group += 1
            for node in group:
                self._group[node] = gid
        self.version += 1

    def isolate(self, node: NodeId) -> None:
        """Disconnect one node (the traveling mobile client)."""
        self.split([node])

    def isolate_group(self, nodes: Iterable[NodeId]) -> None:
        """Correlated partition: split a whole group (e.g. one
        datacenter) off together — intra-group connectivity survives."""
        self.split(list(nodes))

    def rejoin_group(self, nodes: Iterable[NodeId]) -> None:
        """Merge a previously isolated group back into the main group."""
        self.heal(nodes)

    def rejoin(self, node: NodeId) -> None:
        """Bring one node back into the main group."""
        if node not in self._group:
            raise SimulationError(f"unknown node {node!r}")
        self._group[node] = _MAIN_GROUP
        self.version += 1

    def heal(self, nodes: Optional[Iterable[NodeId]] = None) -> None:
        """Merge everything (or the given nodes) back into the main group."""
        targets = list(nodes) if nodes is not None else list(self._group)
        for node in targets:
            if node not in self._group:
                raise SimulationError(f"unknown node {node!r}")
            self._group[node] = _MAIN_GROUP
        self.version += 1

    def __repr__(self) -> str:
        n_groups = len(set(self._group.values()))
        return f"PartitionManager(nodes={len(self._group)}, groups={n_groups})"
