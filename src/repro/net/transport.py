"""Message transport: delivery, loss, and RPC dispatch plumbing.

The transport decides whether a message can travel (both nodes up, same
partition group, a physical route of up links), samples its delay, and
delivers it.  Undeliverable messages are silently dropped — callers
observe the loss as a timeout, or fail fast via
:meth:`Transport.unreachable_reason`, which plays the role of the
paper's "failures signaled from the lower network and transport layers".

"Can it travel, along which links, how far is it, who is reachable,
which host is closest" are all answered from one table that lives as
long as connectivity stands still (:class:`_ReachabilityTable`): the
transport asks the topology once per pair per connectivity change, not
once per question.  A pair's entry holds the route as ``(link, sender)``
hops — which end of each link transmits, worked out (and each link's
endpoints checked) when the entry is made — or the ``(failure class,
message)`` saying why there is no route.
"""

from __future__ import annotations

import types
from functools import partial
from typing import TYPE_CHECKING, Optional, Union

from ..errors import (
    FailureException,
    LinkDownFailure,
    NodeCrashFailure,
    PartitionFailure,
    SimulationError,
)
from ..obs.metrics import Counter
from ..sim.events import Signal
from .address import NodeId
from .link import FixedLatency, Link
from .message import Message
from .node import Node
from .partitions import PartitionManager
from .topology import Topology
from .wire import WireFormat, method_family

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Kernel

__all__ = ["Transport"]


#: one hop of a route: the link, and the endpoint that transmits on it
_Hop = tuple[Link, NodeId]
#: what a down node reaches
_NOWHERE: frozenset[NodeId] = frozenset()


class _ReachabilityTable:
    """Every answer derived from connectivity, for one epoch.

    The one invalidation rule: an entry is valid while ``(topology.
    version, partitions.version)`` stands still.  Every connectivity
    mutator — the :class:`~repro.net.fabric.Network` facade's, or the
    topology's and the partition manager's own — moves one of the two,
    and the next question starts an empty table.  ``Node.up`` is not
    part of the epoch (a crashing node is marked down before its
    topology entry is), so no entry depends on it: each answer applies
    the ``up`` test itself, in front of the table.  The one entry
    derived from liveness, a source's reachable view, keeps the flags
    it was taken under and is checked against them on every ask.
    """

    __slots__ = ("epoch", "routes", "latencies", "reachable", "rankings")

    def __init__(self, epoch: tuple[int, int]):
        self.epoch = epoch
        #: (src, dst) -> the up route as (link, sending endpoint) hops,
        #: or (failure class, message)
        self.routes: dict[tuple[NodeId, NodeId],
                          Union[list[_Hop], tuple[type, str]]] = {}
        #: (src, dst) -> expected latency along that route (None: no route)
        self.latencies: dict[tuple[NodeId, NodeId], Optional[float]] = {}
        #: src -> (the nodes with a route from src, src included; their
        #: ``up`` flags when the view was taken; the view: the up ones,
        #: or none while src is down)
        self.reachable: dict[NodeId, tuple[tuple[Node, ...], list[bool],
                                           frozenset[NodeId]]] = {}
        #: (origin, hosts) -> the routable hosts, closest first
        self.rankings: dict[tuple[NodeId, tuple[NodeId, ...]],
                            tuple[NodeId, ...]] = {}


class Transport:
    """Delivers messages between nodes and dispatches RPC handlers."""

    def __init__(self, kernel: "Kernel", topology: Topology,
                 partitions: PartitionManager, nodes: dict[NodeId, Node],
                 wire: Optional[WireFormat] = None):
        self.kernel = kernel
        self.topology = topology
        self.partitions = partitions
        self.nodes = nodes
        self.wire = wire if wire is not None else WireFormat()
        self._pending_replies: dict[int, Signal] = {}
        self._latency_stream = kernel.stream("net.latency")
        metrics = kernel.obs.metrics
        # Message accounting: registry counters, bumped inline per message.
        self._m_sent = metrics.counter("net.messages_sent")
        self._m_delivered = metrics.counter("net.messages_delivered")
        self._m_dropped = metrics.counter("net.messages_dropped")
        self._m_bytes_sent = metrics.counter("net.bytes_sent")
        self._m_bytes_received = metrics.counter("net.bytes_received")
        # Per-method-family byte counters (``net.bytes_sent.object``, …),
        # registered on a family's first byte and held per *method*, so a
        # message pays one dictionary hit.
        self._bytes_sent_by_method: dict[str, Counter] = {}
        self._bytes_received_by_method: dict[str, Counter] = {}
        self._m_delivery_delay = metrics.histogram("net.delivery_delay")
        self._m_queue_delay = metrics.histogram("net.link.queue_delay")
        self._queue_delay_by_family: dict[str, object] = {}
        self._m_rank_hits = metrics.counter("fetch.rank_cache_hits")
        self._reachability = _ReachabilityTable(
            (topology.version, partitions.version))

    # -- reachability -----------------------------------------------------
    def _table(self) -> "_ReachabilityTable":
        """The table of the current connectivity epoch (the one
        invalidation rule — see :class:`_ReachabilityTable`)."""
        epoch = (self.topology.version, self.partitions.version)
        table = self._reachability
        if table.epoch != epoch:
            table = self._reachability = _ReachabilityTable(epoch)
        return table

    def _connection(self, src: NodeId, dst: NodeId
                    ) -> Union[list[_Hop], tuple[type, str]]:
        """The table's answer for ``src → dst``, node liveness aside:
        the up route within one partition group as hops, or the
        ``(failure class, message)`` saying why there is none."""
        routes = self._table().routes
        try:
            return routes[src, dst]
        except KeyError:
            return self._find_connection(routes, src, dst)

    def _find_connection(self, routes: dict, src: NodeId, dst: NodeId
                         ) -> Union[list[_Hop], tuple[type, str]]:
        """Work out the answer ``routes`` (the current epoch's) does not
        hold yet, and keep it there."""
        if not self.partitions.same_partition(src, dst):
            found = (PartitionFailure,
                     f"{src} and {dst} are in different partitions")
        else:
            links = self.topology.route(src, dst)
            if links is None:
                found = (LinkDownFailure, f"no up path from {src} to {dst}")
            else:
                # Who transmits on each link is the route's, not the
                # message's: walked once here (``Link.other`` rejects a
                # link the walk is not at an end of), read per message.
                found = []
                sender = src
                for link in links:
                    found.append((link, sender))
                    sender = link.other(sender)
        routes[src, dst] = found
        return found

    def _route_or_reason(self, src: NodeId, dst: NodeId
                         ) -> Union[list[_Hop], tuple[type, str]]:
        """The up route from ``src`` to ``dst`` as hops — or, when there
        is none, the reason as ``(failure class, message)``.  One lookup
        answers both "can it travel" and "along which links".

        A reason is kept as its parts, never as an instance, so every
        caller that raises one builds its own exception (a shared
        instance would drag one ``__traceback__`` through every raise).
        """
        try:
            dst_up = self.nodes[dst].up
        except KeyError:
            raise SimulationError(f"unknown destination node {dst!r}") from None
        if not dst_up:
            return NodeCrashFailure, f"node {dst} is crashed"
        # Every message asks this two or three times and connectivity
        # stands still for most of a run: while the table stands, the
        # answer is one epoch test and one dictionary hit, here (a moved
        # epoch goes through _table(), which alone replaces the table).
        table = self._reachability
        if table.epoch != (self.topology.version, self.partitions.version):
            table = self._table()
        routes = table.routes
        try:
            return routes[src, dst]
        except KeyError:
            return self._find_connection(routes, src, dst)

    def unreachable_reason(self, src: NodeId, dst: NodeId) -> Optional[FailureException]:
        """Why ``dst`` cannot be reached from ``src`` (None if it can).

        The returned exception instance is a new one, ready to raise;
        its concrete class tells callers what kind of failure the
        transport detected.
        """
        found = self._route_or_reason(src, dst)
        if type(found) is tuple:
            failure, message = found
            return failure(message)
        return None

    def can_reach(self, src: NodeId, dst: NodeId) -> bool:
        return type(self._route_or_reason(src, dst)) is not tuple

    def _latency(self, src: NodeId, dst: NodeId) -> Optional[float]:
        """Expected latency of the table's route (None without one)."""
        latencies = self._table().latencies
        key = (src, dst)
        try:
            return latencies[key]
        except KeyError:
            pass
        route = self._connection(src, dst)
        latency = None
        if type(route) is not tuple:
            # Summed in route order, as on every question before the
            # table: the same float to the last bit.
            latency = (sum(link.latency.expected() for link, _ in route)
                       if route else 0.0)
        latencies[key] = latency
        return latency

    def expected_latency(self, src: NodeId, dst: NodeId) -> Optional[float]:
        """Closest-first proximity metric; None if currently unreachable."""
        if not self.can_reach(src, dst):
            return None
        return self._latency(src, dst)

    def reachable_from(self, src: NodeId) -> set[NodeId]:
        """All nodes currently reachable from ``src`` (including itself);
        a new set each time, the caller's to keep or change."""
        return set(self.reachable_view(src))

    def reachable_view(self, src: NodeId) -> frozenset[NodeId]:
        """All nodes currently reachable from ``src`` (including itself)
        as one frozen set, shared: the same object while the epoch and
        the ``up`` flags of the nodes connected to ``src`` stand still.

        Liveness is not part of the epoch, so every ask compares those
        flags with the ones the view was taken under, and only a
        difference rebuilds it."""
        table = self._table()
        entry = table.reachable.get(src)
        if entry is not None:
            connected, flags, view = entry
            if [node.up for node in connected] == flags:
                return view
        else:
            src_node = self.nodes.get(src)
            if src_node is None:
                raise SimulationError(f"unknown node {src!r}")
            if not src_node.up:
                return _NOWHERE
            connected = tuple([
                node for n, node in self.nodes.items()
                if n == src or type(self._connection(src, n)) is not tuple])
        flags = [node.up for node in connected]
        view = (frozenset([node.name for node in connected if node.up])
                if self.nodes[src].up else _NOWHERE)
        table.reachable[src] = (connected, flags, view)
        return view

    def rank(self, origin: NodeId, hosts: tuple[NodeId, ...]) -> tuple[NodeId, ...]:
        """Reachable ``hosts`` by expected latency from ``origin``, then
        node id (see :func:`repro.store.fetchplan.rank_hosts`)."""
        rankings = self._table().rankings
        key = (origin, hosts)
        ranked = rankings.get(key)
        if ranked is None:
            with_latency = []
            for host in hosts:
                latency = self._latency(origin, host)
                if latency is not None:
                    with_latency.append((latency, host))
            ranked = rankings[key] = tuple(
                [host for _, host in sorted(with_latency)])
        else:
            self._m_rank_hits.value += 1
        nodes = self.nodes
        return tuple([host for host in ranked if nodes[host].up])

    # -- sending ---------------------------------------------------------
    def send(self, msg: Message) -> bool:
        """Attempt delivery; returns False if dropped at send time.

        Loss after send (destination crashes or partitions while the
        message is in flight) is checked again at delivery time.

        The message is measured by the transport's wire format and its
        ``wire_size`` stamped before anything else, so even dropped
        messages have honest byte accounting.  Delivery delay is
        store-and-forward: the sender pays serialisation once, then
        each link on the route charges FIFO queueing behind earlier
        transmissions, ``size / bandwidth`` transfer, and its sampled
        propagation latency.  All-infinite-bandwidth routes reduce
        exactly to the seed's latency-only model.
        """
        size = msg.wire_size
        if size is None:
            # Stamped as Message.__init__ fills its fields: the instance
            # dictionary, not a trip through the frozen __setattr__.
            size = msg.__dict__["wire_size"] = self.wire.measure(msg)
        self._m_sent.value += 1
        if size:
            self._m_bytes_sent.value += size
            family = self._bytes_sent_by_method.get(msg.method)
            if family is None:
                family = self._family_counter(
                    self._bytes_sent_by_method, "net.bytes_sent", msg.method)
            family.value += size
        # Message.__str__ is three nested formats: only pay for it when
        # the trace log will keep the record.
        kernel = self.kernel
        trace = kernel.trace
        route = self._route_or_reason(msg.src.node, msg.dst.node)
        if type(route) is tuple:
            self._m_dropped.value += 1
            if trace.enabled:
                trace.record("drop", msg=str(msg), at="send")
            return False
        stream = self._latency_stream
        for link, _ in route:
            if link.loss_rate > 0.0 and stream.bernoulli(link.loss_rate):
                self._m_dropped.value += 1
                if trace.enabled:
                    trace.record("drop", msg=str(msg), at="loss",
                                 link=f"{link.a}<->{link.b}")
                return False
        now = kernel.clock.now
        t = now + self.wire.serialize_delay(size)
        queue_wait = 0.0
        for link, sender in route:
            latency = link.latency
            # A constant needs no call, and an infinite-bandwidth link
            # charges (0, 0): adding nothing leaves the same float.
            # Every sampled model keeps its call and its draw order.
            # (link.py owns both rules, and names this loop at each.)
            propagation = (latency.delay if latency.__class__ is FixedLatency
                           else latency.sample(stream))
            if link.bandwidth > 0:
                wait, transfer = link.transmit(sender, size, t)
                queue_wait += wait
                t += wait + transfer + propagation
            else:
                t += propagation
        delay = t - now
        self._m_delivery_delay.observe(delay)
        if queue_wait > 0.0:
            self._m_queue_delay.observe(queue_wait)
            family = method_family(msg.method)
            hist = self._queue_delay_by_family.get(family)
            if hist is None:
                hist = kernel.obs.metrics.histogram(
                    f"net.link.queue_delay.{family}")
                self._queue_delay_by_family[family] = hist
            hist.observe(queue_wait)
        if trace.enabled:
            trace.record("send", msg=str(msg), delay=round(delay, 6),
                         size=size)
        # Straight onto the kernel's queue: a delivery is never cancelled
        # (so no cancel handle), and a partial is called without a frame
        # of its own.
        kernel._schedule(delay, partial(self._deliver, msg))
        return True

    def _deliver(self, msg: Message) -> None:
        trace = self.kernel.trace
        if type(self._route_or_reason(msg.src.node, msg.dst.node)) is tuple:
            self._m_dropped.value += 1
            if trace.enabled:
                trace.record("drop", msg=str(msg), at="delivery")
            return
        self._m_delivered.value += 1
        size = msg.wire_size
        if size:
            self._m_bytes_received.value += size
            family = self._bytes_received_by_method.get(msg.method)
            if family is None:
                family = self._family_counter(
                    self._bytes_received_by_method, "net.bytes_received",
                    msg.method)
            family.value += size
        if trace.enabled:
            trace.record("recv", msg=str(msg))
        if msg.is_reply:
            self._complete_reply(msg)
        else:
            self._dispatch_request(msg)

    def _family_counter(self, by_method: dict[str, Counter], base: str,
                        method: str) -> Counter:
        """First message of ``method``: resolve its family's byte counter
        in the registry and hold it under the method name."""
        counter = by_method[method] = self.kernel.obs.metrics.counter(
            f"{base}.{method_family(method)}")
        return counter

    # -- RPC bookkeeping ----------------------------------------------------
    def register_reply(self, request: Message) -> Signal:
        # Not named after ``msg_id``: that counts per host process, and
        # the only text that would show it (a timed-out wait's) is
        # replaced by the caller's own.
        sig = Signal(name="reply")
        self._pending_replies[request.msg_id] = sig
        return sig

    def forget_reply(self, request_id: int) -> None:
        self._pending_replies.pop(request_id, None)

    def _complete_reply(self, msg: Message) -> None:
        # Compare against None explicitly: `reply_to or -1` would treat a
        # legitimate id of 0 as missing and orphan that caller forever.
        if msg.reply_to is None:
            return
        sig = self._pending_replies.pop(msg.reply_to, None)
        if sig is None or sig._fired:
            return  # caller gave up (timeout) before the reply landed
        if msg.method.endswith("!error"):
            error = msg.payload
            if not isinstance(error, BaseException):
                error = SimulationError(f"remote error: {error!r}")
            sig.fail(error)
        else:
            sig.fire(msg.payload)

    # -- server-side dispatch ------------------------------------------------
    def _dispatch_request(self, msg: Message) -> None:
        node = self.nodes[msg.dst.node]
        executor = node.executor
        if executor is None:
            # The seed model: every request gets a handler immediately
            # (unbounded concurrency — servers can never saturate).
            self._execute_request(node, msg)
            return
        executor.submit(
            msg.priority,
            start=lambda release: self._execute_request(node, msg, release),
            shed=lambda exc: self.send(msg.reply(exc, error=True)),
            degrade=self._degraded_runner(node, msg),
        )

    def _execute_request(self, node: Node, msg: Message,
                         release=None) -> None:
        """Invoke the handler; ``release`` (executor callback) fires
        once the request settles — immediately for fast in-memory
        methods, at handler completion for generator handlers."""
        try:
            service = node.service(msg.dst.service)
            handler = getattr(service, msg.method, None)
            if handler is None or msg.method.startswith("_"):
                raise SimulationError(
                    f"{msg.dst}: no RPC method {msg.method!r}"
                )
            args, kwargs = msg.payload
            result = handler(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - forwarded to caller
            if release is not None:
                release()
            self.send(msg.reply(exc, error=True))
            return
        if isinstance(result, types.GeneratorType):
            self._run_handler(node, msg, result, release)
        else:
            if release is not None:
                release()
            self.send(msg.reply(result))

    def _degraded_runner(self, node: Node, msg: Message):
        """The brownout fast-path, if the target service offers one.

        A service may declare ``DEGRADED_METHODS`` mapping an RPC
        method to a zero-cost fallback that answers from committed
        state (e.g. a stale membership snapshot).  The executor invokes
        it synchronously when the admission queue is deep — degrading
        freshness, not availability.
        """
        service = node.services.get(msg.dst.service)
        if service is None:
            return None
        table = getattr(service, "DEGRADED_METHODS", None)
        if not table:
            return None
        alt = table.get(msg.method)
        if alt is None:
            return None

        def run() -> None:
            try:
                args, kwargs = msg.payload
                result = getattr(service, alt)(*args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - forwarded
                self.send(msg.reply(exc, error=True))
                return
            self.send(msg.reply(result))

        return run

    def _run_handler(self, node: Node, msg: Message, gen: types.GeneratorType,
                     release=None) -> None:
        proc = self.kernel.spawn(
            gen, daemon=True,
            name=lambda: f"{msg.dst}.{msg.method}#{msg.msg_id}")
        node.track_handler(proc)

        def on_done(sig: Signal) -> None:
            if release is not None:
                release()
            if not node.up:
                return  # crashed while handling: reply is lost
            if sig._error is not None:
                self.send(msg.reply(sig._error, error=True))
            else:
                self.send(msg.reply(sig._value))

        proc.done.add_waiter(on_done)
