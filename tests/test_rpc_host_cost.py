"""What one RPC costs the host, counted.

The rule these tests pin: nothing per message is formatted, re-derived,
allocated or re-walked unless the simulation or an attached reader uses
the result — and what the interpreter does below the call count (a
slot wrapper per field, a hash per member, a call to add a constant) is
done once per thing that changes, not once per message, and a
membership write is paid per name written, not per member.  They count
calls (exact, seed-free), not seconds; that the counts buy time is
``perf/``'s job.  Each mechanism is then held to the behaviour it
replaced: the same name strings when something does read them, the same
bucket for every float, the same order within an instant as the frozen seed
kernel, the same delay to the last bit, the same pickled bytes.
"""

import dataclasses
import gc
import inspect
import math
import pickle
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (LinkDownFailure, PartitionFailure, ProcessKilled,
                          ServerBusyFailure, TimeoutFailure)
from repro.net import (Address, BoundedExecutor, CompactCodec,
                       ExecutorPolicy, FixedLatency, Link, Message, Network,
                       ParetoLatency, ResilientClient, RetryPolicy,
                       WireFormat, full_mesh)
from repro.net import wire
from repro.net.topology import Topology
from repro.net.transport import Transport
from repro.obs import DEFAULT_LATENCY_BUCKETS, Histogram, MetricsRegistry
from repro.sim import (Fork, InstantHeap, Join, Kernel, Signal, Sleep,
                       Wait)
from repro.sim import process as sim_process
from repro.sim.clock import Clock
from repro.sim.sched import _Scheduled
from repro.store import AddSpec, HashRing, Repository, World
from repro.store import repository as store_repository
from repro.store.elements import Element

from helpers import CLIENT, line, sharded_world, standard_world
from seed_kernel import Kernel as SeedKernel


class EchoService:
    def echo(self, value):
        return value

    def slow(self, value, delay):
        yield Sleep(delay)
        return value


def two_nodes():
    kernel = Kernel()
    net = Network(kernel, full_mesh(["a", "b"], FixedLatency(0.01)))
    net.register_service("b", "echo", EchoService())
    return kernel, net


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that counts; returns the
    one-element list holding the count."""
    calls = [0]
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def rpc(net, method, *args):
    def proc():
        return (yield from net.call("a", "b", "echo", method, *args))
    return proc()


# -- format on read, hold standing answers --------------------------------------

@pytest.mark.parametrize("method, args", [("echo", ("v",)),
                                          ("slow", ("v", 0.05))])
def test_a_settled_rpc_formats_no_name_and_asks_no_route(monkeypatch, method,
                                                         args):
    kernel, net = two_nodes()
    assert kernel.run_process(rpc(net, method, *args)) == "v"      # warm
    counted = {
        "Address.__str__": count_calls(monkeypatch, Address, "__str__"),
        "Message.__str__": count_calls(monkeypatch, Message, "__str__"),
        "process name": count_calls(monkeypatch, sim_process, "_format_name"),
        "Topology.route": count_calls(monkeypatch, Topology, "route"),
        "Transport._connection": count_calls(monkeypatch, Transport,
                                             "_connection"),
        "Transport._table": count_calls(monkeypatch, Transport, "_table"),
        "Transport._find_connection": count_calls(monkeypatch, Transport,
                                                  "_find_connection"),
        # a free hop (constant latency, infinite bandwidth) is one add
        "Link.transmit": count_calls(monkeypatch, Link, "transmit"),
        "Link.other": count_calls(monkeypatch, Link, "other"),
        "FixedLatency.sample": count_calls(monkeypatch, FixedLatency,
                                           "sample"),
    }
    sent = net.kernel.obs.metrics.value("net.messages_sent")
    assert kernel.run_process(rpc(net, method, *args), name="") == "v"
    assert net.kernel.obs.metrics.value("net.messages_sent") == sent + 2
    assert {what: calls[0] for what, calls in counted.items()} == \
        dict.fromkeys(counted, 0)


def test_a_settled_rpc_is_counted_inline_in_the_registry():
    kernel, net = two_nodes()
    assert kernel.run_process(rpc(net, "echo", "v")) == "v"        # warm
    registry = kernel.obs.metrics
    counters = ("net.messages_sent", "net.messages_delivered",
                "net.bytes_sent", "net.bytes_received")
    before = {name: registry.value(name) for name in counters}
    families = [instrument for instrument in registry
                if instrument.name.startswith(("net.bytes_sent.",
                                               "net.bytes_received."))]
    family_before = sum(instrument.value for instrument in families)
    captured, callees = [], []
    send = net.transport.send
    net.transport.send = lambda msg: (captured.append(msg), send(msg))[1]

    def profile(frame, event, arg):
        # every Python call the transport makes on a message's way through
        caller = frame.f_back
        if (event == "call" and caller is not None
                and caller.f_code.co_filename == transport_file
                and caller.f_code.co_name in ("send", "_deliver")):
            callees.append((caller.f_code.co_name, frame.f_code.co_qualname))

    transport_file = Transport.send.__code__.co_filename
    sys.setprofile(profile)
    try:
        assert kernel.run_process(rpc(net, "echo", "v"), name="") == "v"
    finally:
        sys.setprofile(None)
    request, reply = captured
    size = request.wire_size + reply.wire_size
    moved = {name: registry.value(name) - before[name] for name in counters}
    assert moved == {"net.messages_sent": 2, "net.messages_delivered": 2,
                     "net.bytes_sent": size, "net.bytes_received": size}
    assert sum(instrument.value for instrument in families) - family_before \
        == 2 * size
    # what a message costs the transport is what it simulates: no call
    # is made to count it, the codec is asked for its size in one frame,
    # and free serialisation (rate 0) asks for no delay
    sent = [("send", "CompactCodec.canonical_size"),
            ("send", "Transport._route_or_reason"),
            ("send", "Histogram.observe"), ("send", "Kernel._schedule")]
    assert callees == (sent + [("_deliver", "Transport._route_or_reason"),
                               ("_deliver", "Transport._dispatch_request")]
                       + sent + [("_deliver", "Transport._route_or_reason"),
                                 ("_deliver", "Transport._complete_reply")])


def test_a_finite_serialize_rate_charges_each_message_once_as_it_did(
        monkeypatch):
    kernel, net = two_nodes()
    net.transport.wire = WireFormat(serialize_rate=5_000.0)
    assert kernel.run_process(rpc(net, "echo", "v")) == "v"        # warm
    asked = count_calls(monkeypatch, WireFormat, "serialize_delay")
    measured = count_calls(monkeypatch, WireFormat, "measure")
    sends, delays = record_sends(kernel, net)
    assert kernel.run_process(rpc(net, "echo", "v" * 300)) == "v" * 300
    assert asked[0] == len(sends) == 2
    assert measured[0] == 0
    # serialisation first, then the hop: the float the seed computed
    assert delays == [(now + size / 5_000.0 + 0.01) - now
                      for _, _, size, now in sends]
    assert all(size > 0 for _, _, size, _ in sends)


def test_a_connectivity_change_is_still_seen_by_the_next_message():
    kernel, net = two_nodes()
    assert kernel.run_process(rpc(net, "echo", 1)) == 1
    net.topology.set_link_up("a", "b", False)        # not through the facade
    with pytest.raises(Exception) as caught:
        kernel.run_process(rpc(net, "echo", 2))
    assert "no up path from a to b" in str(caught.value)
    net.topology.set_link_up("a", "b", True)
    assert kernel.run_process(rpc(net, "echo", 3)) == 3


def test_a_network_builds_each_address_once():
    kernel, net = two_nodes()
    captured = []
    send = net.transport.send
    net.transport.send = lambda msg: (captured.append(msg), send(msg))[1]
    for i in range(3):
        assert kernel.run_process(rpc(net, "echo", i)) == i
    requests, replies = captured[::2], captured[1::2]
    assert all(m.src is requests[0].src and m.dst is requests[0].dst
               for m in requests)
    assert all(m.src is requests[0].dst and m.dst is requests[0].src
               for m in replies)
    assert (requests[0].src, requests[0].dst) == (Address("a", "client"),
                                                  Address("b", "echo"))


# -- a message's bytes are paid per shape ----------------------------------------

def test_settled_rpcs_derive_each_envelope_once(monkeypatch):
    kernel, net = two_nodes()
    derived = count_calls(monkeypatch, CompactCodec, "_envelope_entry")
    for i in range(5):
        assert kernel.run_process(rpc(net, "echo", i)) == i
    # the request shape a -> b and the reply shape b -> a
    assert derived[0] == 2
    assert len(net.transport.wire.codec._envelopes) == 2


def test_a_repeated_listing_reply_walks_its_strings_once_per_table(monkeypatch):
    kernel, net, world, elements = standard_world(members=6)
    walked = []
    size_strings = wire._size_strings

    def walking(total, strings, interns):
        walked.append(strings)
        return size_strings(total, strings, interns)

    monkeypatch.setattr(wire, "_size_strings", walking)
    readers = [Repository(world, CLIENT), Repository(world, "s1")]
    for _ in range(4):
        for repo in readers:
            view = kernel.run_process(repo.read_membership("coll",
                                                           source="primary"))
            assert view.members == frozenset(elements)
    (listing_entry,) = net.transport.wire.codec._listing_sizes.values()
    assert frozenset(listing_entry[0]) == frozenset(elements)
    # sized eight times, after two intern tables (one per reader's
    # envelope): its strings are walked once for each table
    assert sum(strings is listing_entry[2] for strings in walked) == 2
    assert len(listing_entry[3]) == 2


# -- a hop pays for what it simulates ---------------------------------------------

def relayed(latency, bandwidth=0.0, **kernel_kwargs):
    """``a - r - b``: every message crosses two links."""
    kernel = Kernel(**kernel_kwargs)
    net = Network(kernel, line(["a", "r", "b"], latency, bandwidth=bandwidth))
    net.register_service("b", "echo", EchoService())
    return kernel, net


def reference_delay(route, src, size, now, serialize, stream):
    """``Transport.send``'s delay as it was computed before the table
    held hops: every link asked to transmit, every model asked to
    sample, the sender walked along with ``Link.other``."""
    t = now + serialize
    hop = src
    for link in route:
        wait, transfer = link.transmit(hop, size, t)
        t += wait + transfer + link.latency.sample(stream)
        hop = link.other(hop)
    return t - now


def record_sends(kernel, net):
    """Every message as ``(src, dst, size, now)`` and, beside it, the
    delivery delay the transport scheduled for it — the float itself."""
    sends, delays = [], []
    send, schedule = net.transport.send, kernel._schedule

    def sending(msg):
        sent = send(msg)
        sends.append((msg.src.node, msg.dst.node, msg.wire_size, kernel.now))
        return sent

    def scheduling(delay, action):
        if getattr(action, "func", None) == net.transport._deliver:
            delays.append(delay)
        return schedule(delay, action)

    net.transport.send = sending
    kernel._schedule = scheduling
    return sends, delays


def reference_delays(twin_kernel, twin, sends):
    """What the parent's loop makes of the same messages on a twin
    network (same seed, so the same latency stream)."""
    stream = twin_kernel.stream("net.latency")
    return [reference_delay(twin.topology.route(src, dst), src, size, now,
                            twin.transport.wire.serialize_delay(size), stream)
            for src, dst, size, now in sends]


def test_a_finite_link_is_still_asked_to_transmit_once_per_hop(monkeypatch):
    kernel, net = relayed(FixedLatency(0.01), bandwidth=10_000.0)
    assert kernel.run_process(rpc(net, "echo", "v")) == "v"        # warm
    transmits = []
    transmit = Link.transmit

    def recording(link, sender, size, now):
        transmits.append((link.a, link.b, sender))
        return transmit(link, sender, size, now)

    monkeypatch.setattr(Link, "transmit", recording)
    others = count_calls(monkeypatch, Link, "other")
    samples = count_calls(monkeypatch, FixedLatency, "sample")
    assert kernel.run_process(rpc(net, "echo", "v"), name="") == "v"
    # request a->r->b, reply b->r->a: each link in route order, sent
    # from the end the message enters it by
    assert transmits == [("a", "r", "a"), ("r", "b", "r"),
                         ("r", "b", "b"), ("a", "r", "r")]
    assert (others[0], samples[0]) == (0, 0)


def test_a_sampled_latency_still_draws_once_per_hop_in_route_order(monkeypatch):
    kernel, net = relayed(ParetoLatency(0.005), seed=5)
    twin_kernel, twin = relayed(ParetoLatency(0.005), seed=5)
    sends, delays = record_sends(kernel, net)
    draws = []
    sample = ParetoLatency.sample

    def recording(model, stream):
        drawn = sample(model, stream)
        if stream is net.transport._latency_stream:
            draws.append(drawn)
        return drawn

    monkeypatch.setattr(ParetoLatency, "sample", recording)
    for value in range(3):
        assert kernel.run_process(rpc(net, "echo", value)) == value
    assert len(draws) == 3 * 2 * 2          # rpcs x messages x hops
    # the same draws in the same order as the loop that asked every link
    # everything, so the same delays to the last bit
    assert len(delays) == 6
    assert delays == reference_delays(twin_kernel, twin, sends)


def test_a_queued_transfer_adds_up_as_it_did():
    """Finite links, sampled latency, back-to-back messages that queue
    behind each other: wait + transfer + propagation per hop, summed in
    the order it always was."""
    def build():
        kernel = Kernel(seed=2)
        net = Network(kernel, line(["a", "r", "b"], ParetoLatency(0.001),
                                   bandwidth=2_000.0))
        net.register_service("b", "echo", EchoService())
        return kernel, net

    kernel, net = build()
    sends, delays = record_sends(kernel, net)

    def burst():
        children = []
        for value in range(4):
            children.append((yield Fork(rpc(net, "echo", "x" * 40 * value))))
        for child in children:
            yield Join(child)

    kernel.run_process(burst())
    assert len(delays) == 8
    assert delays == reference_delays(*build(), sends)
    assert kernel.obs.metrics.get("net.link.queue_delay").count > 0


def test_a_free_hop_adds_what_its_link_would_have_answered():
    """``Transport.send`` reads ``FixedLatency.delay`` and ``bandwidth``
    itself where ``link.py``'s ``sample`` and ``transmit`` would answer
    the delay and (0, 0): held to those two methods float for float, on
    free routes, on a route that mixes a free and a finite hop, and on a
    link made finite mid-epoch (a ``Link`` is changed in place)."""
    def build(finite):
        kernel = Kernel(seed=3)
        net = Network(kernel, full_mesh(
            ["a", "r", "b"],
            latency_for=lambda x, y: FixedLatency(0.1 if "a" in (x, y) else 0.7)))
        net.register_service("b", "echo", EchoService())
        net.topology.set_link_up("a", "b", False)          # a - r - b
        if finite:
            net.topology.link_between("r", "b").bandwidth = 3_000.0
        return kernel, net

    for finite in (False, True):
        kernel, net = build(finite)
        sends, delays = record_sends(kernel, net)
        for value in range(3):
            assert kernel.run_process(rpc(net, "echo", "x" * value)) == "x" * value
        assert len(delays) == 6
        assert delays == reference_delays(*build(finite), sends)
    # the same table, the link changed under it: seen by the next message
    kernel, net = build(False)
    assert kernel.run_process(rpc(net, "echo", 1)) == 1
    sends, delays = record_sends(kernel, net)
    net.topology.link_between("r", "b").bandwidth = 3_000.0
    assert kernel.run_process(rpc(net, "echo", 2)) == 2
    twin_kernel, twin = build(True)
    twin_kernel.run(until=kernel.now)
    assert delays == reference_delays(twin_kernel, twin, sends)
    assert delays[0] > 0.1 + 0.7


def test_a_reroute_or_a_partition_is_seen_by_the_next_message():
    """The hops are the epoch's: a cut link means new hops (the long way
    round, and its delay), a partition means none."""
    def latency_for(x, y):
        return FixedLatency(0.01 if {x, y} == {"a", "b"} else 0.02)

    kernel = Kernel()
    net = Network(kernel, full_mesh(["a", "r", "b"], latency_for=latency_for))
    net.register_service("b", "echo", EchoService())
    _, delays = record_sends(kernel, net)
    assert kernel.run_process(rpc(net, "echo", 1)) == 1
    net.topology.set_link_up("a", "b", False)        # not through the facade
    assert kernel.run_process(rpc(net, "echo", 2)) == 2
    net.partitions.isolate("b")
    with pytest.raises(PartitionFailure):
        kernel.run_process(rpc(net, "echo", 3))
    net.partitions.heal()
    net.topology.set_link_up("a", "r", False)
    with pytest.raises(LinkDownFailure):
        kernel.run_process(rpc(net, "echo", 4))
    net.topology.set_link_up("a", "b", True)
    assert kernel.run_process(rpc(net, "echo", 5)) == 5
    assert delays == pytest.approx([0.01, 0.01, 0.04, 0.04, 0.01, 0.01])


def test_a_route_through_a_link_it_is_not_at_an_end_of_is_refused(monkeypatch):
    """``Link.other``'s endpoint test is still made — once per route per
    epoch, when the table entry is."""
    kernel, net = relayed(FixedLatency(0.01))
    stray = Link("x", "y")
    monkeypatch.setattr(Topology, "route", lambda self, src, dst: [stray])
    with pytest.raises(Exception) as caught:
        kernel.run_process(rpc(net, "echo", 1))
    assert "is not an endpoint of" in str(caught.value)


# -- admission and retry pay for what they decide --------------------------------

class ReadService:
    """``read`` has a degraded fallback; ``write`` has none."""

    DEGRADED_METHODS = {"read": "read_stale"}

    def read(self, tag):
        yield Sleep(0.1)
        return tag

    def read_stale(self, tag):
        return ("stale", tag)

    def write(self, tag):
        yield Sleep(0.1)
        return tag


def brownout_net():
    """One worker, brownout from two queued requests (queue limit 4)."""
    kernel = Kernel(seed=3)
    net = Network(kernel, full_mesh(["a", "b"], FixedLatency(0.001)))
    net.register_service("b", "svc", ReadService())
    net.node("b").executor = BoundedExecutor(
        kernel, ExecutorPolicy(concurrency=1, queue_limit=4, brownout=True),
        name="b")
    return kernel, net


def burst(kernel, net, calls):
    """Issue ``calls`` ((method, tag)) 0.1 ms apart; return {tag: reply},
    a shed call's reply being ``"busy"``."""
    replies = {}

    def one(method, tag):
        try:
            replies[tag] = yield from net.call("a", "b", "svc", method, tag,
                                               timeout=5.0)
        except ServerBusyFailure:
            replies[tag] = "busy"

    def driver():
        for method, tag in calls:
            kernel.spawn(one(method, tag), name="")
            yield Sleep(0.0001)

    kernel.spawn(driver(), name="driver")
    kernel.run(until=kernel.now + 10.0)
    return replies


def test_a_shallow_queue_never_asks_for_the_degraded_path(monkeypatch):
    kernel, net = brownout_net()
    asked = count_calls(monkeypatch, Transport, "_serve_degraded")
    # one running and at most one queued: never deep enough to brown out
    calls = []
    for wave in range(5):
        calls += [("read", f"r{wave}.0"), ("read", f"r{wave}.1")]
    replies = {}
    for i in range(0, len(calls), 2):
        replies.update(burst(kernel, net, calls[i:i + 2]))
    assert replies == {tag: tag for _, tag in calls}
    assert asked[0] == 0
    assert kernel.obs.metrics.value("overload.brownout_served") == 0
    assert kernel.obs.metrics.value("overload.admitted") == len(calls)


def test_a_deep_queue_asks_only_for_what_arrives_deep(monkeypatch):
    kernel, net = brownout_net()
    asked = count_calls(monkeypatch, Transport, "_serve_degraded")
    # w0 runs, w1 and w2 queue: from then on the queue is deep
    calls = ([("write", f"w{i}") for i in range(3)]
             + [("read", f"r{i}") for i in range(3)])
    replies = burst(kernel, net, calls)
    assert asked[0] == 3
    assert {tag: replies[tag] for tag in ("r0", "r1", "r2")} == \
        {f"r{i}": ("stale", f"r{i}") for i in range(3)}
    assert kernel.obs.metrics.value("overload.brownout_served") == 3


def test_a_deep_queue_queues_what_has_no_degraded_path(monkeypatch):
    kernel, net = brownout_net()
    asked = count_calls(monkeypatch, Transport, "_serve_degraded")
    # asked for each write that arrives deep; each answers "none" and
    # queues (w3) or is shed (w4, w5: the queue holds four)
    replies = burst(kernel, net, [("write", f"w{i}") for i in range(7)])
    assert asked[0] == 4
    assert replies == {"w0": "w0", "w1": "w1", "w2": "w2", "w3": "w3",
                       "w4": "w4", "w5": "busy", "w6": "busy"}
    metrics = kernel.obs.metrics
    assert metrics.value("overload.brownout_served") == 0
    assert metrics.value("overload.shed") == 2


@pytest.mark.parametrize("hedged", [False, True])
def test_a_client_without_a_breaker_makes_no_breaker_call(monkeypatch, hedged):
    kernel = Kernel(seed=4)
    net = Network(kernel, full_mesh(["a", "b", "c"], FixedLatency(0.01)))
    for node in ("b", "c"):
        net.register_service(node, "echo", EchoService())
    client = ResilientClient(net, policy=RetryPolicy(max_attempts=3),
                             hedge_delay=0.005 if hedged else None)
    counted = {name: count_calls(monkeypatch, ResilientClient, name)
               for name in ("_admit", "breaker_for", "_settle")}

    def calls():
        if hedged:
            value = yield from client.hedged_call("a", ["b", "c"], "echo",
                                                  "slow", "v", 0.02,
                                                  timeout=1.0)
        else:
            value = yield from client.call("a", "b", "echo", "echo", "v",
                                           timeout=1.0)
        assert value == "v"
        net.crash("b")
        with pytest.raises(Exception):
            yield from client.call("a", "b", "echo", "echo", "v",
                                   timeout=0.1)

    kernel.run_process(calls())
    attempts = kernel.obs.metrics.value("rpc.attempts")
    assert attempts == (2 if hedged else 1) + 3
    assert {name: calls[0] for name, calls in counted.items()} == \
        dict.fromkeys(counted, 0)


# -- an instant is one scheduler call ---------------------------------------------

def test_the_kernel_asks_the_scheduler_once_per_instant(monkeypatch):
    kernel = Kernel()
    log = []
    for delay in (0.001, 0.001, 0.0015, 0.25, 0.25, 0.25, 7.0):
        kernel.call_soon(lambda: log.append(kernel.now), delay=delay)
    cancelled = kernel.call_soon(lambda: log.append("cancelled"), delay=0.3)
    cancelled()
    asked = count_calls(monkeypatch, InstantHeap, "next_instant")
    advanced = count_calls(monkeypatch, Clock, "advance_to")
    kernel.run()
    assert log == [0.001, 0.001, 0.0015, 0.25, 0.25, 0.25, 7.0]
    # four instants, and the call that found the queue empty; the clock's
    # own monotonic test still made at each
    assert (asked[0], advanced[0]) == (4 + 1, 4)
    # the three methods the kernel drives are all the scheduler offers
    assert {name for name, value in vars(InstantHeap).items()
            if callable(value) and not name.startswith("_")} == \
        {"push", "next_instant", "requeue"}


def test_sleeps_over_k_instants_are_k_heap_entries_and_no_entry_is_compared(
        monkeypatch):
    """The queue orders instants, not entries: a push to a pending
    instant appends, and no two scheduled entries are ever compared in
    Python."""
    compared = [count_calls(monkeypatch, _Scheduled, name)
                for name in ("__lt__", "__le__", "__gt__", "__ge__")]
    kernel = Kernel()
    n, k = 60, 4
    woke = []

    def sleeper(i):
        for _ in range(3):
            yield Sleep(0.0005 * (1 + i % k))
            woke.append(i)

    for i in range(n):
        kernel.spawn(sleeper(i))
    kernel.run(until=0.0)
    sched = kernel._sched
    assert len(sched) == n
    assert len(sched._times) == len(sched._groups) == k
    kernel.run()
    assert len(woke) == 3 * n
    assert [c[0] for c in compared] == [0, 0, 0, 0]


# -- a message is built once, and is frozen to everyone else ----------------------

#: ``pickle.dumps(FIXED, protocol=4)`` as the generated ``__init__`` left it
GOLDEN_MESSAGE = (
    b'\x80\x04\x95\xf0\x00\x00\x00\x00\x00\x00\x00\x8c\x11repro.net.message'
    b'\x94\x8c\x07Message\x94\x93\x94)\x81\x94}\x94(\x8c\x03src\x94\x8c\x11'
    b'repro.net.address\x94\x8c\x07Address\x94\x93\x94)\x81\x94}\x94(\x8c\x04'
    b'node\x94\x8c\x01a\x94\x8c\x07service\x94\x8c\x06client\x94ub\x8c\x03dst'
    b'\x94h\x08)\x81\x94}\x94(h\x0b\x8c\x01b\x94h\r\x8c\x04echo\x94ub\x8c\x06'
    b'method\x94h\x13\x8c\x07payload\x94\x8c\x01v\x94\x85\x94}\x94\x86\x94\x8c'
    b'\x08is_reply\x94\x89\x8c\x08reply_to\x94N\x8c\x08priority\x94K\x01\x8c\x06'
    b'msg_id\x94K\x07\x8c\twire_size\x94Nub.')


def fixed_message(**changes):
    fields = dict(src=Address("a", "client"), dst=Address("b", "echo"),
                  method="echo", payload=(("v",), {}), priority=1, msg_id=7)
    fields.update(changes)
    return Message(**fields)


def test_a_message_pickles_to_the_bytes_it_always_did():
    msg = fixed_message()
    assert pickle.dumps(msg, protocol=4) == GOLDEN_MESSAGE
    back = pickle.loads(GOLDEN_MESSAGE)
    assert back == msg and pickle.dumps(back, protocol=4) == GOLDEN_MESSAGE
    assert list(vars(msg)) == [f.name for f in dataclasses.fields(Message)]
    # sent: the stamp is a field like the others, in its declared place
    kernel, net = two_nodes()
    net.transport.send(msg)
    assert msg.wire_size == net.transport.wire.measure(msg) > 0
    assert list(vars(msg)) == [f.name for f in dataclasses.fields(Message)]
    assert pickle.loads(pickle.dumps(msg)).wire_size == msg.wire_size


def test_a_message_is_a_frozen_dataclass_to_its_readers():
    msg = fixed_message(payload="v")
    # one constructor, written out (the generated one lives in "<string>")
    assert Message.__init__.__code__.co_filename.endswith("message.py")
    assert dataclasses.is_dataclass(msg)
    for name, value in (("wire_size", 9), ("src", msg.dst), ("extra", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(msg, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del msg.payload
    assert dataclasses.replace(msg, msg_id=1) == fixed_message(payload="v",
                                                               msg_id=1)
    assert dataclasses.replace(msg, msg_id=1) != msg
    # wire_size takes no part in equality or the hash
    stamped = dataclasses.replace(msg, wire_size=46)
    assert stamped.wire_size == 46 and msg.wire_size is None
    assert stamped == msg and hash(stamped) == hash(msg)
    assert repr(msg) == (
        "Message(src=Address(node='a', service='client'), "
        "dst=Address(node='b', service='echo'), method='echo', payload='v', "
        "is_reply=False, reply_to=None, priority=1, msg_id=7, wire_size=None)")
    # the written signature is the declared fields: names, order, defaults
    # (msg_id declares none: None asks __init__ for a fresh one)
    parameters = list(inspect.signature(Message).parameters.values())
    assert [(p.name, p.default) for p in parameters] == [
        (f.name, None if f.name == "msg_id" else
         inspect.Parameter.empty if f.default is dataclasses.MISSING else
         f.default)
        for f in dataclasses.fields(Message)]
    assert all(f.default_factory is dataclasses.MISSING
               for f in dataclasses.fields(Message))
    # defaults, positional order and fresh, increasing ids
    first = Message(msg.src, msg.dst, "echo")
    second = Message(msg.src, msg.dst, "echo")
    assert second.msg_id == first.msg_id + 1
    assert (first.payload, first.is_reply, first.reply_to, first.priority,
            first.wire_size) == (None, False, None, 1, None)
    reply = first.reply("ok")
    assert reply.msg_id == second.msg_id + 1
    assert (reply.src, reply.dst, reply.method, reply.is_reply,
            reply.reply_to) == (first.dst, first.src, "echo!ok", True,
                                first.msg_id)
    assert first.reply(ValueError("no"), error=True).method == "echo!error"


# -- a listing is hashed once -----------------------------------------------------

def test_reads_of_an_unwritten_collection_share_one_member_set(monkeypatch):
    kernel, net, world, elements = standard_world(members=6)
    readers = [Repository(world, CLIENT) for _ in range(3)]
    views = [kernel.run_process(repo.read_membership("coll"))
             for repo in readers]
    assert views[0].members == frozenset(elements)
    assert all(view.members is views[0].members for view in views)
    assert len(world.listing_sets) == 1
    # written: the next view is the new listing's set, nothing stale
    added = kernel.run_process(readers[0].add("coll", "late", value="v"))
    after_add = kernel.run_process(readers[1].read_membership("coll"))
    assert after_add.members == frozenset(elements + [added])
    kernel.run_process(readers[0].remove("coll", elements[0]))
    after_remove = kernel.run_process(readers[2].read_membership("coll"))
    assert after_remove.members == frozenset(elements[1:] + [added])
    assert views[0].members == frozenset(elements)      # old views stand
    # and the table is bounded: oldest listing out
    bound = store_repository._LISTING_SETS
    for i in range(bound + 5):
        kernel.run_process(readers[0].add("coll", f"extra-{i}", value=i))
        kernel.run_process(readers[1].read_membership("coll"))
        assert len(world.listing_sets) <= bound
    assert len(world.listing_sets) == bound
    assert all(members == frozenset(listing)
               for listing, members in world.listing_sets.values())
    # per world, like the instruments: another world starts empty
    assert standard_world(members=2)[2].listing_sets == {}


# -- a write pays for the names it wrote -------------------------------------------

def test_a_small_batch_into_a_large_sharded_collection_hashes_what_it_wrote(
        monkeypatch):
    """A shard's owned view and the history entry made from it are
    patched from the names written, so sixteen adds into a 400-member,
    four-shard collection hash about sixteen elements and ask the ring
    about sixteen names a few times each — not once per member of every
    shard written."""
    kernel, net, world, _ = sharded_world(n_shards=4, members=400)
    repo = Repository(world, CLIENT)
    before = world.true_members("coll")
    hashes = count_calls(monkeypatch, Element, "__hash__")
    owners = count_calls(monkeypatch, HashRing, "owner")
    added = kernel.run_process(repo.add_many(
        "coll", [AddSpec(f"new{i:02d}", value=i) for i in range(16)],
        window=4, batch_size=4))
    after = world.true_members("coll")
    assert len(added) == 16
    assert hashes[0] <= 5 * 16 and owners[0] <= 5 * 16
    # and what was paid for is right
    monkeypatch.undo()
    assert after == before | frozenset(added)
    assert world.check_invariants() == []


# -- the strings, when something does read them --------------------------------

def test_names_read_back_as_they_always_did():
    kernel = Kernel()

    def idle():
        yield Sleep(1.0)

    named = kernel.spawn(idle(), name="worker")
    lazy = kernel.spawn(idle(), name=lambda: "made-" + "late")
    anonymous = kernel.spawn(idle())
    assert (named.name, named.done.name) == ("worker", "worker.done")
    assert (lazy.name, lazy.done.name) == ("made-late", "made-late.done")
    assert (anonymous.pid, anonymous.name, anonymous.done.name) == \
        (3, "proc-3", "proc-3.done")
    assert repr(named) == "Process('worker', pid=1, state=ready)"
    assert repr(named.done) == "Signal('worker.done', pending)"

    def joiner():
        try:
            yield Join(named, timeout=0.25)
        except TimeoutFailure as exc:
            return str(exc)

    assert kernel.run_process(joiner()) == \
        "wait on worker.done timed out after 0.25s"


def test_a_timed_out_rpc_never_showed_the_reply_signals_name():
    kernel, net = two_nodes()

    def proc():
        try:
            yield from net.call("a", "b", "echo", "slow", "v", 5.0, timeout=0.1)
        except TimeoutFailure as exc:
            return str(exc)

    assert kernel.run_process(proc()) == \
        "rpc echo.slow a->b timed out after 0.1s"
    # and the signal itself no longer counts per host process
    request = Message(src=Address("a", "client"), dst=Address("b", "echo"),
                      method="echo")
    assert net.transport.register_reply(request).name == "reply"


# -- a finished process dies by reference count ---------------------------------

def test_a_finished_transient_process_is_freed_without_the_collector():
    """Nothing a process owns points back at it, and nothing a wait
    leaves behind points at itself.  Were ``done`` to hold its process
    (to name itself lazily, say), or a wait's closure to stay hooked to
    its own timer, every dead client would wait for the cyclic collector
    — which runs when the *next* thing allocates, inside someone else's
    timing (``perf/``'s calibration loop, for one)."""
    kernel = Kernel()
    probes = []
    gate = Signal(name="gate")

    class Held:
        pass

    def client():
        held = Held()
        probes.append(weakref.ref(held))
        yield Sleep(0.01)
        try:
            yield Wait(Signal(name="never"), timeout=0.01)  # the timer wakes it
        except TimeoutFailure:
            pass
        yield Wait(gate, timeout=0.02)                      # the signal does
        return held                       # kept as the process's outcome

    def opener():
        yield Sleep(0.025)
        gate.fire()
        # on into later slots: the scheduler lets go of the entries of
        # the slot it drained last when it activates the next
        yield Sleep(0.5)
        yield Sleep(0.5)

    gc.collect()
    gc.disable()
    try:
        generator = client()
        probes.append(weakref.ref(generator))
        kernel.spawn(generator, transient=True)
        kernel.spawn(opener(), transient=True)
        del generator
        kernel.run()
        assert kernel.now == 1.025
        assert len(probes) == 2
        assert [probe() for probe in probes] == [None, None]
    finally:
        gc.enable()


def test_a_done_signal_starts_as_a_plain_signal_does():
    """``_Done`` sets the base class's fields itself (one frame fewer
    per process): a field added to ``Signal`` has to be added there."""
    done = sim_process._Done("p", 1)
    plain = Signal()
    assert done.name == "p.done"
    for slot in Signal.__slots__:
        if slot != "name":
            assert getattr(done, slot) == getattr(plain, slot), slot
    assert set(sim_process._Done.__slots__).isdisjoint(Signal.__slots__)


# -- a completion signal is built when something asks for it --------------------

def test_a_process_nobody_asks_builds_no_done_signal(monkeypatch):
    built = count_calls(monkeypatch, sim_process, "_Done")
    kernel = Kernel()

    def ends(how):
        yield Sleep(0.1)
        if how == "fail":
            raise ValueError("boom")
        return how

    def sleeps():
        yield Sleep(5.0)

    procs = [kernel.spawn(ends("finish")), kernel.spawn(ends("fail")),
             kernel.spawn(sleeps()), kernel.spawn(ends("t"), transient=True)]
    kernel.run(until=1.0)
    procs[2].kill()
    kernel.run()
    assert [p.finished for p in procs] == [True, True, True, True]
    assert (procs[0].result, procs[3].result) == ("finish", "t")
    assert isinstance(procs[1].error, ValueError)
    assert isinstance(procs[2].error, ProcessKilled)
    assert built == [0]
    done = procs[0].done
    assert procs[0].done is done
    assert built == [1]


def test_a_settled_rpc_asks_its_handler_for_done_once(monkeypatch):
    kernel, net = two_nodes()
    asked = []
    build = sim_process.Process.done.fget
    monkeypatch.setattr(sim_process.Process, "done", property(
        lambda proc: asked.append(proc) or build(proc)))
    client = kernel.spawn(rpc(net, "slow", "v", 0.5))
    kernel.run()
    assert client.result == "v"
    # the transport hooks its reply on the signal the node keyed the
    # handler by
    assert len(asked) == 1 and asked[0] is not client
    assert net.node("b")._handlers == {}


def test_a_generator_handler_hangs_one_waiter_on_its_done(monkeypatch):
    """The transport's reply callback is the one waiter on a handler's
    ``done``, and it forgets the handler as it runs."""
    kernel, net = two_nodes()
    hooked = []
    add_waiter = Signal.add_waiter

    def hooking(signal, callback):
        hooked.append(signal)
        return add_waiter(signal, callback)

    monkeypatch.setattr(Signal, "add_waiter", hooking)
    client = kernel.spawn(rpc(net, "slow", "v", 0.5))
    kernel.run(until=0.25)
    (done,) = net.node("b")._handlers
    kernel.run()
    assert client.result == "v"
    assert [signal for signal in hooked if signal is done] == [done]
    assert net.node("b")._handlers == {}


def test_a_membership_read_resolves_its_placement_once(monkeypatch):
    kernel, net, world, elements = standard_world(members=4, replicas=1)
    repo = Repository(world, CLIENT)
    kernel.run_process(repo.read_membership("coll"))        # warm
    resolved = count_calls(monkeypatch, World, "collection_info")
    for source in ("nearest", "primary", "s1"):
        resolved[0] = 0
        view = kernel.run_process(repo.read_membership("coll", source=source))
        assert view.members == frozenset(elements)
        assert resolved[0] == 1, source


@pytest.mark.parametrize("asked", ["before", "after", "never"])
@pytest.mark.parametrize("ending", ["finish", "fail", "kill"])
def test_a_done_reads_as_it_always_did_whenever_it_is_asked(ending, asked):
    kernel = Kernel()

    def worker():
        yield Sleep(1.0)
        if ending == "fail":
            raise ValueError("boom")
        return "value"

    def joiner():
        try:
            return (yield Join(proc))
        except Exception as exc:  # noqa: BLE001 - the joiner's outcome
            return exc

    proc = kernel.spawn(worker(), name="worker")
    if asked == "before":
        early = proc.done
        assert repr(early) == "Signal('worker.done', pending)"
        joined = kernel.spawn(joiner())
    kernel.run(until=0.5)
    if ending == "kill":
        proc.kill()
    kernel.run()

    assert proc.finished
    state = {"finish": "finished", "fail": "failed", "kill": "killed"}[ending]
    assert repr(proc) == f"Process('worker', pid=1, state={state})"
    if ending == "finish":
        assert (proc.result, proc.error) == ("value", None)
    else:
        with pytest.raises((ValueError, ProcessKilled)) as info:
            proc.result
        assert proc.error is info.value
        assert str(info.value) == \
            ("boom" if ending == "fail" else "worker was killed")
        assert isinstance(info.value, ValueError) == (ending == "fail")
    if asked == "never":
        assert proc._done is None
        return

    done = proc.done
    assert proc.done is done
    if asked == "before":
        assert done is early
    assert (done.name, repr(done)) == ("worker.done",
                                       "Signal('worker.done', fired)")
    assert done.error is proc.error
    if asked == "after":
        joined = kernel.spawn(joiner())
        kernel.run()
    assert joined.result == (proc.error or "value")


def test_a_killed_waiter_stays_killed_when_its_signal_fires_later():
    """The wait's closure outlives the kill and writes the resume slots
    when the signal fires: the outcome is not kept there."""
    kernel = Kernel()
    sig = Signal(name="sig")

    def waiter():
        yield Wait(sig, timeout=5.0)

    proc = kernel.spawn(waiter())
    kernel.run(until=1.0)
    proc.kill()
    sig.fire("late")
    kernel.run()
    assert isinstance(proc.done.error, ProcessKilled)
    assert str(proc.error) == "proc-1 was killed"
    with pytest.raises(ProcessKilled):
        proc.result


def test_a_done_asked_while_a_kill_runs_finally_blocks_is_born_killed():
    kernel = Kernel()
    seen = []

    def worker():
        try:
            yield Sleep(5.0)
        finally:
            seen.append(proc.done)

    proc = kernel.spawn(worker())
    kernel.run(until=1.0)
    proc.kill()
    assert seen == [proc.done]
    assert seen[0].fired and seen[0].error is proc.error
    assert isinstance(proc.error, ProcessKilled)


# -- the bucket a float lands in -------------------------------------------------

def linear_bucket(bounds, value):
    """The scan ``Histogram.observe`` used to make."""
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)


EDGES = [edge for bound in DEFAULT_LATENCY_BUCKETS
         for edge in (bound, math.nextafter(bound, -math.inf),
                      math.nextafter(bound, math.inf))]


@settings(max_examples=300)
@given(st.one_of(st.floats(allow_nan=False), st.sampled_from(EDGES),
                 st.sampled_from([math.inf, -math.inf, 0.0, -0.0]),
                 st.integers(-5, 40)))
def test_histogram_finds_the_bucket_a_linear_scan_finds(value):
    hist = Histogram("h")
    hist.observe(value)
    expected = [0] * (len(DEFAULT_LATENCY_BUCKETS) + 1)
    expected[linear_bucket(DEFAULT_LATENCY_BUCKETS, value)] = 1
    assert hist.counts == expected


def test_histogram_bound_is_inclusive_and_nan_still_raises():
    hist = Histogram("h", bounds=(1.0, 2.0))
    for value in (1.0, 2.0, math.nextafter(2.0, math.inf)):
        hist.observe(value)
    assert hist.counts == [1, 1, 1]
    with pytest.raises(ValueError):
        hist.observe(math.nan)
    assert hist.count == 3


# -- instruments are resolved once per world -------------------------------------

def test_repositories_after_the_first_resolve_no_instrument(monkeypatch):
    kernel, net, world, _ = standard_world(members=2)
    first = Repository(world, CLIENT)
    lookups = count_calls(monkeypatch, MetricsRegistry, "_get")
    repos = [Repository(world, CLIENT) for _ in range(100)]
    assert lookups[0] == 0
    assert all(repo._m is first._m for repo in repos)
    # per world, not per process: another world has its own registry
    _, _, other, _ = standard_world(members=2)
    assert Repository(other, CLIENT)._m is not first._m
    assert lookups[0] > 0
    kernel.run_process(repos[0].read_membership("coll"))
    assert kernel.obs.metrics.value("repo.membership_reads") == 1


# -- a wait orders its wake-ups as it always did ---------------------------------

def _waits(kernel, log):
    """Every shape of wait, with same-instant ties around each."""
    fired_first = Signal(name="fired-first")
    already = Signal(name="already")
    already.fire("early")
    untimed = Signal(name="untimed")
    failing = Signal(name="failing")

    def waiter(tag, signal, timeout):
        try:
            value = yield Wait(signal, timeout=timeout)
        except Exception as exc:
            value = f"{type(exc).__name__}: {exc}"
        log.append((kernel.now, tag, value))

    def ticker():
        for _ in range(8):
            yield Sleep(0.005)
            log.append((kernel.now, "tick"))

    def firer():
        yield Sleep(0.005)
        fired_first.fire("in time")
        yield Sleep(0.005)                 # the instant the timeout fires
        untimed.fire("at last")
        failing.fail(ValueError("broken"))

    kernel.spawn(ticker(), name="ticker")
    kernel.spawn(waiter("times-out", Signal(name="never"), 0.010), name="w1")
    kernel.spawn(waiter("fired-first", fired_first, 0.010), name="w2")
    kernel.spawn(waiter("already-fired", already, 0.010), name="w3")
    kernel.spawn(waiter("untimed", untimed, None), name="w4")
    kernel.spawn(waiter("fails", failing, 0.020), name="w5")
    kernel.spawn(firer(), name="firer")
    target = kernel.spawn(ticker(), name="joined")

    def joiner():
        try:
            yield Join(target, timeout=0.010)
        except TimeoutFailure as exc:
            log.append((kernel.now, "join", str(exc)))
        log.append((kernel.now, "joined", (yield Join(target))))

    kernel.spawn(joiner(), name="joiner")


@pytest.mark.parametrize("split", [None, 0.010])
def test_waits_order_like_the_seed_kernel(split):
    observed = []
    for factory in (SeedKernel, Kernel):
        kernel = factory(seed=1)
        log = []
        _waits(kernel, log)
        if split is not None:
            kernel.run(until=split)
            log.append((kernel.now, "--split--"))
        kernel.run()
        observed.append((log, kernel.now))
    assert observed[0] == observed[1]
    log = observed[1][0]
    assert (0.01, "times-out",
            "TimeoutFailure: wait on never timed out after 0.01s") in log
    assert (0.005, "fired-first", "in time") in log
    assert (0.0, "already-fired", "early") in log
    assert (0.01, "fails", "ValueError: broken") in log


# -- nothing host-side is remembered in an element -------------------------------

def test_element_pickles_to_the_same_bytes_whatever_was_asked_of_it():
    element = Element("m", "m-1", "n0", replicas=("n1",))
    before = pickle.dumps(element, protocol=4)
    assert {element: 1}[Element("m", "m-1", "n0")] == 1        # hashed
    frozenset([element])
    assert pickle.dumps(element, protocol=4) == before
    back = pickle.loads(before)
    assert back == element and back.replicas == element.replicas
    assert hash(back) == hash(Element("m", "m-1", "n0"))
    assert pickle.dumps(back, protocol=4) == before
    assert set(vars(back)) == {"name", "oid", "home", "replicas"}
