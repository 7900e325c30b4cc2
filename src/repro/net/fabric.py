"""The :class:`Network` facade: one object wiring kernel, topology,
partitions, nodes, and transport together.

Client code (the weak-set implementations, the dynamic-sets file system,
the benchmarks) talks to the world exclusively through this facade:

* ``yield from net.call(src, dst, service, method, *args)`` — a blocking
  RPC that either returns the remote result or raises a
  :class:`~repro.errors.FailureException` (timeout / crash / partition /
  link down).  This is the paper's model: "Processes (e.g., clients and
  servers) communicate via remote procedure calls."
* fault control: ``crash``, ``recover``, ``split``, ``isolate``,
  ``rejoin``, ``heal``, ``cut_link``, ``restore_link``.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..errors import SimulationError, TimeoutFailure
from ..sim.events import Sleep, Wait
from ..sim.kernel import Kernel
from .address import Address, NodeId
from .executor import PRIORITY_NORMAL
from .message import Message
from .node import Node
from .partitions import PartitionManager
from .topology import Topology
from .transport import Transport
from .wire import WireFormat

__all__ = ["Network"]

#: Virtual time the transport layer takes to signal an unreachable
#: destination (models the "failures signaled from the lower network and
#: transport layers").
DETECTION_DELAY = 0.02


class _Addresses(dict):
    """One :class:`Address` per (node, service) a network has addressed.

    A frozen dataclass is built field by field through
    ``object.__setattr__``, and a run addresses a few dozen endpoints
    thousands of times each.
    """

    def __missing__(self, key: tuple[NodeId, str]) -> Address:
        address = self[key] = Address(*key)
        return address


class Network:
    """A complete simulated distributed system."""

    def __init__(self, kernel: Kernel, topology: Topology,
                 default_timeout: float = 5.0,
                 fail_fast: bool = True,
                 wire: Optional["WireFormat"] = None):
        """
        Args:
            kernel: the discrete-event kernel to run on.
            topology: the physical network graph.
            default_timeout: RPC timeout when the caller gives none.
            fail_fast: if False, unreachable destinations are only ever
                detected by timeout — the purely pessimistic transport;
                if True the transport signals them after
                ``DETECTION_DELAY``.
            wire: the wire format (codec + serialisation rate) the
                transport measures and charges messages with; defaults
                to the compact codec with free serialisation.
        """
        self.kernel = kernel
        self.topology = topology
        self.default_timeout = default_timeout
        self.fail_fast = fail_fast
        self.partitions = PartitionManager(topology.nodes())
        self.nodes: dict[NodeId, Node] = {
            name: Node(name, kernel) for name in topology.nodes()
        }
        self.transport = Transport(kernel, topology, self.partitions, self.nodes,
                                   wire=wire)
        self._listeners: list = []
        self._addresses = _Addresses()
        self._m_attempts = kernel.obs.metrics.counter("rpc.attempts")
        self._m_attempt_latency = kernel.obs.metrics.histogram("rpc.attempt_latency")

    # -- change notification -------------------------------------------------
    def on_connectivity_change(self, callback) -> "callable":
        """Subscribe to the facade's fault-control calls (crash/recover/
        partition/link); returns an unsubscribe function.

        The one subscriber is :class:`~repro.store.world.World`, which
        relays to ``World.on_change`` — where trace recorders and fetch
        pipelines listen.  This is a notification, not an invalidation:
        derived answers (routes, latencies, reachable sets, host
        rankings) are valid while ``(topology.version,
        partitions.version)`` stands still, which also covers mutating
        ``net.topology`` / ``net.partitions`` directly.
        """
        self._listeners.append(callback)

        def unsubscribe() -> None:
            try:
                self._listeners.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    def _notify(self) -> None:
        for callback in list(self._listeners):
            callback()

    # -- structure -------------------------------------------------------
    def node(self, name: NodeId) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise SimulationError(f"unknown node {name!r}") from None

    def register_service(self, node: NodeId, service_name: str, service: Any) -> Address:
        self.node(node).register_service(service_name, service)
        return Address(node, service_name)

    @property
    def now(self) -> float:
        return self.kernel.clock.now

    @property
    def obs(self):
        """The kernel's observability surface (metrics + tracer)."""
        return self.kernel.obs

    # -- RPC ----------------------------------------------------------------
    def call(self, src: NodeId, dst: NodeId, service: str, method: str,
             *args: Any, timeout: Optional[float] = None,
             priority: int = PRIORITY_NORMAL,
             **kwargs: Any) -> Generator[Any, Any, Any]:
        """Blocking RPC from ``src`` to ``service@dst`` (a sub-generator).

        Raises a concrete :class:`FailureException` on any detectable
        failure.  Use as ``result = yield from net.call(...)``.

        ``priority`` is RPC metadata, not a handler argument: the
        destination's bounded executor (when one is configured) queues
        the request under this admission class.

        Every call is one ``rpc.attempt`` span (the resilience layer
        wraps these in a ``rpc.call`` span covering all its attempts).
        """
        tracer = self.kernel.obs.tracer
        span = tracer.start("rpc.attempt", src=src, dst=dst,
                            service=service, method=method)
        self._m_attempts.value += 1
        transport = self.transport
        try:
            if timeout is None:
                timeout = self.default_timeout
            try:
                src_up = self.nodes[src].up
            except KeyError:
                raise SimulationError(f"unknown node {src!r}") from None
            if not src_up:
                raise SimulationError(f"caller node {src} is crashed")
            # A route, or why there is none: one question, and the
            # failure is built only when it is raised.
            found = transport._route_or_reason(src, dst)
            if type(found) is tuple and self.fail_fast:
                # The transport layer detects and signals the failure
                # after a short detection delay, instead of burning the
                # full timeout.
                yield Sleep(min(DETECTION_DELAY, timeout))
                failure, message = found
                raise failure(message)
            request = Message(
                src=self._addresses[src, "client"],
                dst=self._addresses[dst, service],
                method=method,
                payload=(args, kwargs),
                priority=priority,
            )
            reply = transport.register_reply(request)
            transport.send(request)
            try:
                # timeout=inf means "wait forever" (used by lock clients
                # that are prepared to block indefinitely); Wait gets no
                # timer at all.
                result = yield Wait(
                    reply, None if timeout == float("inf") else timeout)
            except TimeoutFailure:
                transport.forget_reply(request.msg_id)
                # Classify the timeout if the transport now knows the cause.
                reason = transport.unreachable_reason(src, dst)
                if reason is not None:
                    raise reason from None
                raise TimeoutFailure(
                    f"rpc {service}.{method} {src}->{dst} timed out after {timeout}s"
                ) from None
        except BaseException as exc:
            self._m_attempt_latency.observe(
                tracer.finish(span, outcome=type(exc).__name__))
            raise
        self._m_attempt_latency.observe(tracer.finish(span, outcome="ok"))
        return result

    # -- fault injection -------------------------------------------------
    def crash(self, node: NodeId) -> None:
        self.node(node).crash()
        self.topology.set_node_up(node, False)
        self._notify()

    def recover(self, node: NodeId) -> None:
        self.node(node).recover()
        self.topology.set_node_up(node, True)
        self._notify()

    def split(self, *sides) -> None:
        self.partitions.split(*sides)
        self._notify()

    def isolate(self, node: NodeId) -> None:
        self.partitions.isolate(node)
        self._notify()

    def rejoin(self, node: NodeId) -> None:
        self.partitions.rejoin(node)
        self._notify()

    def isolate_group(self, nodes) -> None:
        self.partitions.isolate_group(nodes)
        self._notify()

    def rejoin_group(self, nodes) -> None:
        self.partitions.rejoin_group(nodes)
        self._notify()

    def heal(self) -> None:
        self.partitions.heal()
        self._notify()

    def cut_link(self, a: NodeId, b: NodeId) -> None:
        self.topology.set_link_up(a, b, False)
        self._notify()

    def restore_link(self, a: NodeId, b: NodeId) -> None:
        self.topology.set_link_up(a, b, True)
        self._notify()

    # -- queries --------------------------------------------------------------
    def can_reach(self, src: NodeId, dst: NodeId) -> bool:
        return self.transport.can_reach(src, dst)

    def reachable_from(self, src: NodeId) -> set[NodeId]:
        """All nodes currently reachable from ``src`` (including itself)."""
        return self.transport.reachable_from(src)

    def expected_latency(self, a: NodeId, b: NodeId) -> Optional[float]:
        """Closest-first proximity metric; None if currently unreachable."""
        return self.transport.expected_latency(a, b)

    def __repr__(self) -> str:
        up = sum(1 for n in self.nodes.values() if n.up)
        return f"Network(nodes={len(self.nodes)}, up={up}, t={self.now:.3f})"
