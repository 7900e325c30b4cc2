"""Weak sets: the paper's design points as working distributed programs.

Every class here sees the world only through RPC (reads that may be
stale, fetches that may fail); the God's-eye ground truth stays with
the specification checker.  See DESIGN.md §3 for the figure-to-class
map and :mod:`repro.weaksets.factory` for selection by name.
"""

from ..spec.termination import Failed, Outcome, Returned, Yielded
from .base import WeakSet
from .dynamic import DynamicSet
from .factory import SEMANTICS, make_weak_set, policy_for, weak_set_class
from .grow_only import GrowOnlySet, PerRunGrowOnlySet
from .immutable import Figure1Set, ImmutableSet, PerRunImmutableSet
from .iterator import DrainResult, ElementsIterator
from .locking import (
    LockClient,
    LockService,
    acquire_collection_locks,
    install_lock_service,
    install_lock_services,
    release_collection_locks,
)
from .mechanism import Mechanism
from .query import QueryIterator, select
from .quorum import QuorumGrowOnlySet
from .snapshot import SnapshotSet
from .stabilize import StableResult, iterate_until_stable
from .strong import StrongSet
from .union import UnionIterator, union

__all__ = [
    "DrainResult",
    "DynamicSet",
    "ElementsIterator",
    "Failed",
    "Figure1Set",
    "GrowOnlySet",
    "ImmutableSet",
    "LockClient",
    "LockService",
    "Mechanism",
    "Outcome",
    "PerRunGrowOnlySet",
    "PerRunImmutableSet",
    "QueryIterator",
    "QuorumGrowOnlySet",
    "Returned",
    "SEMANTICS",
    "StableResult",
    "SnapshotSet",
    "StrongSet",
    "UnionIterator",
    "WeakSet",
    "Yielded",
    "acquire_collection_locks",
    "install_lock_service",
    "install_lock_services",
    "iterate_until_stable",
    "make_weak_set",
    "policy_for",
    "release_collection_locks",
    "select",
    "union",
    "weak_set_class",
]
