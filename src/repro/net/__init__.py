"""Simulated wide-area network substrate.

Builds the paper's model of a distributed system: "a set of connected
nodes, not necessarily strongly connected", where "nodes may crash and
communication links may fail", possibly producing partitions.  See
DESIGN.md §2.
"""

from .address import Address, NodeId
from .executor import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    BoundedExecutor,
    ExecutorPolicy,
)
from .fabric import Network
from .failure_detector import FailureDetector, PingService
from .failures import FaultInjector, FaultPlan, FaultSchedule
from .link import FixedLatency, LatencyModel, Link, ParetoLatency, UniformLatency
from .message import Message
from .node import Node
from .partitions import PartitionManager
from .resilience import (
    AIMDPolicy,
    AdaptiveLimiter,
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    Deadline,
    ResilientClient,
    RetryBudget,
    RetryBudgetPolicy,
    RetryPolicy,
    TRANSPORT_FAILURES,
)
from .topology import Topology, full_mesh, line, ring, wan_clusters
from .transport import Transport
from .wire import (
    BANDWIDTH_PRESETS,
    BandwidthPreset,
    Blob,
    CompactCodec,
    NaiveCodec,
    WireFormat,
    codec_by_name,
    method_family,
    unwrap,
)

__all__ = [
    "BANDWIDTH_PRESETS",
    "BandwidthPreset",
    "Blob",
    "CompactCodec",
    "NaiveCodec",
    "WireFormat",
    "codec_by_name",
    "method_family",
    "unwrap",
    "AIMDPolicy",
    "AdaptiveLimiter",
    "Address",
    "BoundedExecutor",
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    "Deadline",
    "ExecutorPolicy",
    "FailureDetector",
    "FaultInjector",
    "FaultPlan",
    "FaultSchedule",
    "FixedLatency",
    "LatencyModel",
    "Link",
    "Message",
    "Network",
    "Node",
    "NodeId",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "ParetoLatency",
    "PartitionManager",
    "PingService",
    "ResilientClient",
    "RetryBudget",
    "RetryBudgetPolicy",
    "RetryPolicy",
    "TRANSPORT_FAILURES",
    "Topology",
    "Transport",
    "UniformLatency",
    "full_mesh",
    "line",
    "ring",
    "wan_clusters",
]
