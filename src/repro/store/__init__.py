"""Distributed object repository.

Models the paper's "persistent object repositories … and wide-area
information systems": object servers on every node, collections whose
members are scattered across nodes (the Figure 2 containment model),
lazily synchronized replicas, client caches, and the ground-truth
``reachable`` function.  See DESIGN.md §2.
"""

from .antientropy import AntiEntropySyncer, apply_delta
from .cache import ClientCache
from .elements import Element, ObjectId, StoredObject
from .fetchplan import (
    FetchPipeline,
    FetchPlanner,
    FetchResult,
    order_closest_first,
    rank_hosts,
)
from .offline import OfflineClient, Outbox, OutboxEntry, ReconcileReport
from .reachability import Figure2, figure2_world
from .recovery import RecoveryManager, RepairDaemon
from .repository import MembershipView, Repository
from .server import (
    CollectionState,
    ObjectServer,
    POLICIES,
    batch_add_step,
    erase_plan,
    erase_step,
)
from .sharding import HashRing, ShardMap, shard_state_id
from .wal import IntentLog, IntentRecord
from .world import CollectionInfo, World
from .writeplan import AddSpec, WritePipeline, WritePlanner, WriteResult

__all__ = [
    "AddSpec",
    "AntiEntropySyncer",
    "ClientCache",
    "CollectionInfo",
    "CollectionState",
    "Element",
    "FetchPipeline",
    "FetchPlanner",
    "FetchResult",
    "Figure2",
    "HashRing",
    "IntentLog",
    "IntentRecord",
    "MembershipView",
    "ObjectId",
    "ObjectServer",
    "OfflineClient",
    "Outbox",
    "OutboxEntry",
    "POLICIES",
    "ReconcileReport",
    "RecoveryManager",
    "RepairDaemon",
    "Repository",
    "ShardMap",
    "StoredObject",
    "World",
    "WritePipeline",
    "WritePlanner",
    "WriteResult",
    "apply_delta",
    "batch_add_step",
    "erase_plan",
    "erase_step",
    "figure2_world",
    "order_closest_first",
    "rank_hosts",
    "shard_state_id",
]
