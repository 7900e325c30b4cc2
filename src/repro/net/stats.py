"""Per-node message accounting, stored in the metrics registry.

The experiments argue about *cost* as well as latency (e.g. quorum
reads buy availability with extra messages); these counters put numbers
on it.  Maintained by the transport for every message.

Every aggregate count is a :class:`~repro.obs.metrics.Counter` of the
kernel's :class:`~repro.obs.metrics.MetricsRegistry`, resolved once and
held as a plain attribute: ``stats.retries`` *is* the registry's
``rpc.retries`` counter (read ``.value``, bump ``.value += 1``), so
whatever the stats object reports agrees with the exported JSONL
artifact by construction.  Names are documented in
``docs/observability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..obs.metrics import Counter, MetricsRegistry
from .address import NodeId
from .message import Message
from .wire import method_family

__all__ = ["NodeStats", "NetworkStats"]


@dataclass
class NodeStats:
    """Counters for one node."""

    sent: int = 0
    received: int = 0
    requests_handled: int = 0
    addressed: int = 0        # messages addressed *to* this node at send time
    bytes_sent: int = 0
    bytes_received: int = 0

    def __str__(self) -> str:
        return (f"sent={self.sent} received={self.received} "
                f"handled={self.requests_handled} addressed={self.addressed} "
                f"bytes_out={self.bytes_sent} bytes_in={self.bytes_received}")


class NetworkStats:
    """Counters for the whole network, per node and aggregate."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        counter = self.registry.counter
        # -- transport-level counters ------------------------------------
        self.total_sent = counter("net.messages_sent")
        self.total_delivered = counter("net.messages_delivered")
        self.total_dropped = counter("net.messages_dropped")
        # -- resilience-layer counters (maintained by ResilientClient and
        #    Repository failover, not by the transport itself) ----------
        self.retries = counter("rpc.retries")
        self.hedges = counter("rpc.hedges")
        self.hedge_wins = counter("rpc.hedge_wins")
        self.breaker_trips = counter("rpc.breaker_trips")
        self.breaker_fast_fails = counter("rpc.breaker_fast_fails")
        self.failovers = counter("rpc.failovers")
        self.retry_budget_exhausted = counter("overload.retry_budget_exhausted")
        # -- wire-level byte accounting (``Message.wire_size``, stamped by
        #    the transport's WireFormat at send time) --------------------
        self.bytes_sent = counter("net.bytes_sent")
        self.bytes_received = counter("net.bytes_received")
        # Per-method-family byte counters (``net.bytes_sent.object``,
        # ``net.bytes_received.sync``, …), created on a family's first
        # byte and cached per *method* so the hot path is one dict hit.
        self._sent_by_method: dict[str, Counter] = {}
        self._received_by_method: dict[str, Counter] = {}
        self.per_node: dict[NodeId, NodeStats] = {}

    def node(self, name: NodeId) -> NodeStats:
        stats = self.per_node.get(name)
        if stats is None:
            stats = NodeStats()
            self.per_node[name] = stats
        return stats

    def record_send(self, msg: Message) -> None:
        self.total_sent.value += 1
        # node() makes the entry on a node's first message; every later
        # one is a subscript, no call.
        per_node = self.per_node
        try:
            sender = per_node[msg.src.node]
            addressee = per_node[msg.dst.node]
        except KeyError:
            sender = self.node(msg.src.node)
            addressee = self.node(msg.dst.node)
        sender.sent += 1
        addressee.addressed += 1
        size = msg.wire_size or 0
        if size:
            self.bytes_sent.value += size
            sender.bytes_sent += size
            family = self._sent_by_method.get(msg.method)
            if family is None:
                family = self._family_counter(
                    self._sent_by_method, "net.bytes_sent", msg.method)
            family.value += size

    def record_delivery(self, msg: Message) -> None:
        self.total_delivered.value += 1
        receiver = self.per_node[msg.dst.node]    # entered when it was sent
        receiver.received += 1
        if not msg.is_reply:
            receiver.requests_handled += 1
        size = msg.wire_size or 0
        if size:
            self.bytes_received.value += size
            receiver.bytes_received += size
            family = self._received_by_method.get(msg.method)
            if family is None:
                family = self._family_counter(
                    self._received_by_method, "net.bytes_received", msg.method)
            family.value += size

    def _family_counter(self, cache: dict[str, Counter], base: str,
                        method: str) -> Counter:
        """First message of ``method``: resolve its family's byte counter
        in the registry and remember it under the method name."""
        counter = self.registry.counter(f"{base}.{method_family(method)}")
        cache[method] = counter
        return counter

    def record_drop(self, msg: Message) -> None:
        self.total_dropped.value += 1

    @property
    def delivery_rate(self) -> float:
        sent = self.total_sent.value
        return self.total_delivered.value / sent if sent else 0.0

    def busiest_nodes(self, k: int = 5) -> list[tuple[NodeId, int]]:
        """Top-k nodes by requests handled (the hot servers)."""
        ranked = sorted(self.per_node.items(),
                        key=lambda item: item[1].requests_handled,
                        reverse=True)
        return [(name, stats.requests_handled) for name, stats in ranked[:k]]

    def __str__(self) -> str:
        extras = ""
        if (self.retries.value or self.hedges.value
                or self.breaker_trips.value or self.failovers.value):
            extras = (f", retries={self.retries.value}, "
                      f"hedges={self.hedges.value}, "
                      f"breaker_trips={self.breaker_trips.value}, "
                      f"failovers={self.failovers.value}")
        return (f"NetworkStats(sent={self.total_sent.value}, "
                f"delivered={self.total_delivered.value}, "
                f"dropped={self.total_dropped.value}{extras})")
