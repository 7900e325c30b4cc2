"""Factory helpers: pick a design point by name, with sane wiring.

The design space has one natural axis for users — "how weak can I
afford to be?" — so the factory exposes it as a single string.
"""

from __future__ import annotations

from typing import Any, Type

from ..net.address import NodeId
from ..store.world import World
from .base import WeakSet
from .dynamic import DynamicSet
from .grow_only import GrowOnlySet, PerRunGrowOnlySet
from .immutable import Figure1Set, ImmutableSet, PerRunImmutableSet
from .quorum import QuorumGrowOnlySet
from .snapshot import SnapshotSet
from .strong import StrongSet

__all__ = ["SEMANTICS", "weak_set_class", "make_weak_set"]

SEMANTICS: dict[str, Type[WeakSet]] = {
    "fig1": Figure1Set,
    "fig3": ImmutableSet,
    "immutable": ImmutableSet,
    "fig4": SnapshotSet,
    "snapshot": SnapshotSet,
    "fig5": GrowOnlySet,
    "grow-only": GrowOnlySet,
    "per-run-grow-only": PerRunGrowOnlySet,
    "quorum-grow-only": QuorumGrowOnlySet,
    "per-run-immutable": PerRunImmutableSet,
    "fig6": DynamicSet,
    "dynamic": DynamicSet,
    "optimistic": DynamicSet,
    "strong": StrongSet,
}


def weak_set_class(semantics: str) -> Type[WeakSet]:
    try:
        return SEMANTICS[semantics]
    except KeyError:
        raise KeyError(
            f"unknown semantics {semantics!r}; known: {sorted(SEMANTICS)}"
        ) from None


def make_weak_set(world: World, client: NodeId, coll_id: str,
                  semantics: str = "dynamic", **kwargs: Any) -> WeakSet:
    """Build a weak set of the requested semantics.

    ``kwargs`` pass through to the class (cache, rpc_timeout, record,
    and iterator-specific knobs like ``retry_interval``).
    """
    return weak_set_class(semantics)(world, client, coll_id, **kwargs)
