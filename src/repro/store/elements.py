"""Elements, object identifiers, and stored objects.

The value of a weak set (the paper's ``s_σ``) is a frozenset of
:class:`Element` descriptors.  Each element names a data object that
lives on a *home node*; following the paper's Figure 2, the element is
"contained in" the collection as part of its value, while its data is a
separate object that may or may not be *reachable*.

Element identity is (name, oid): re-adding a removed name creates a new
oid and therefore a distinct element, which is how the paper suggests
modelling item mutation ("the deletion of an old item from the set
followed by the addition of a new item").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..net.address import NodeId

__all__ = ["ObjectId", "Element", "StoredObject"]

ObjectId = str


@dataclass(frozen=True, order=True)
class Element:
    """A member descriptor: what the ``elements`` iterator yields.

    ``replicas`` lists nodes holding read-only copies of the data
    object, used by the resilient fetch path to fail over when the home
    is unreachable.  It is placement metadata, not identity: two views
    of the same member compare equal regardless of replica placement.
    """

    name: str
    oid: ObjectId
    home: NodeId
    replicas: tuple[NodeId, ...] = field(default=(), compare=False)

    @property
    def locations(self) -> tuple[NodeId, ...]:
        """Every node holding a copy, authoritative home first."""
        return (self.home,) + self.replicas

    def __str__(self) -> str:
        return f"{self.name}@{self.home}"


@dataclass
class StoredObject:
    """A data object stored on an object server."""

    oid: ObjectId
    value: Any
    size: int = 0
    version: int = 1
    created_at: float = 0.0
    deleted: bool = False

    def __repr__(self) -> str:
        flag = " DELETED" if self.deleted else ""
        return f"StoredObject({self.oid}, v{self.version}, {self.size}B{flag})"
