"""The transport's reachability table against an uncached reference.

Every derived connectivity answer (route-or-reason, expected latency,
reachable set, host ranking) is remembered per connectivity epoch
``(topology.version, partitions.version)``.  The state machine below
drives every connectivity mutator — the ``Network`` facade's and the
direct ``net.topology`` / ``net.partitions`` bypasses — interleaved with
every question, and compares each answer with a reference computed here
from ``topology``, ``partitions`` and ``nodes`` alone: no table, no
``Topology.route`` cache.
"""

import heapq

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.errors import LinkDownFailure, NodeCrashFailure, PartitionFailure
from repro.net import FixedLatency, Network, Topology
from repro.sim import Kernel
from repro.store import rank_hosts

from helpers import line

NODES = ["a", "b", "c", "d", "e", "f"]
#: a ring with two chords; dyadic latencies, so every path sum is exact
#: and equal-cost detours cannot differ in the last bit
LINKS = [("a", "b", 0.125), ("b", "c", 0.25), ("c", "d", 0.125),
         ("d", "e", 0.5), ("e", "f", 0.25), ("f", "a", 0.125),
         ("a", "d", 1.0), ("b", "e", 0.5)]

nodes = st.sampled_from(NODES)
links = st.sampled_from([(a, b) for a, b, _ in LINKS])
groups = st.lists(nodes, min_size=1, max_size=3, unique=True)


def build() -> Network:
    topo = Topology()
    for n in NODES:
        topo.add_node(n)
    for a, b, latency in LINKS:
        topo.add_link(a, b, FixedLatency(latency))
    return Network(Kernel(seed=0), topo)


# -- the reference: recomputed from scratch on every question -------------

def ref_distance(net, src, dst):
    """Least summed expected latency over up links between up topology
    nodes (None if there is no such path)."""
    topo = net.topology
    if not (topo.node_is_up(src) and topo.node_is_up(dst)):
        return None
    if src == dst:
        return 0.0
    best = {src: 0.0}
    heap = [(0.0, src)]
    while heap:
        d, node = heapq.heappop(heap)
        if node == dst:
            return d
        if d > best[node]:
            continue
        for link in topo.links():
            if not link.up or node not in (link.a, link.b):
                continue
            other = link.other(node)
            if not topo.node_is_up(other):
                continue
            nd = d + link.latency.expected()
            if nd < best.get(other, float("inf")):
                best[other] = nd
                heapq.heappush(heap, (nd, other))
    return None


def ref_reason(net, src, dst):
    """(failure class, message) or None, in the transport's order:
    crashed destination, then partition, then no up path."""
    if not net.nodes[dst].up:
        return NodeCrashFailure, f"node {dst} is crashed"
    if net.partitions.group_of(src) != net.partitions.group_of(dst):
        return PartitionFailure, f"{src} and {dst} are in different partitions"
    if ref_distance(net, src, dst) is None:
        return LinkDownFailure, f"no up path from {src} to {dst}"
    return None


def ref_latency(net, src, dst):
    if ref_reason(net, src, dst) is not None:
        return None
    return ref_distance(net, src, dst)


def ref_reachable(net, src):
    if not net.nodes[src].up:
        return set()
    return {n for n in NODES if n == src or ref_reason(net, src, n) is None}


def ref_rank(net, origin, hosts):
    with_latency = [(ref_latency(net, origin, h), h) for h in hosts]
    return tuple(h for latency, h in
                 sorted(pair for pair in with_latency if pair[0] is not None))


def check_pair(net, src, dst):
    expected = ref_reason(net, src, dst)
    assert net.can_reach(src, dst) == (expected is None)
    reason = net.transport.unreachable_reason(src, dst)
    if expected is None:
        assert reason is None
    else:
        assert (type(reason), str(reason)) == expected
    assert net.expected_latency(src, dst) == ref_latency(net, src, dst)


class ConnectivityMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.net = build()

    # -- the facade's mutators --------------------------------------------
    @rule(n=nodes)
    def crash(self, n):
        self.net.crash(n)

    @rule(n=nodes)
    def recover(self, n):
        self.net.recover(n)

    @rule(left=groups, right=groups)
    def split(self, left, right):
        self.net.split(left, [n for n in right if n not in left])

    @rule(n=nodes)
    def isolate(self, n):
        self.net.isolate(n)

    @rule(n=nodes)
    def rejoin(self, n):
        self.net.rejoin(n)

    @rule(group=groups)
    def isolate_group(self, group):
        self.net.isolate_group(group)

    @rule(group=groups)
    def rejoin_group(self, group):
        self.net.rejoin_group(group)

    @rule()
    def heal(self):
        self.net.heal()

    @rule(link=links)
    def cut_link(self, link):
        self.net.cut_link(*link)

    @rule(link=links)
    def restore_link(self, link):
        self.net.restore_link(*link)

    # -- the bypasses: no facade, no notification --------------------------
    @rule(link=links, up=st.booleans())
    def topology_set_link_up(self, link, up):
        self.net.topology.set_link_up(*link, up)

    @rule(n=nodes, up=st.booleans())
    def topology_set_node_up(self, n, up):
        self.net.topology.set_node_up(n, up)

    @rule(n=nodes)
    def partitions_isolate(self, n):
        self.net.partitions.isolate(n)

    @rule(n=nodes)
    def partitions_rejoin(self, n):
        self.net.partitions.rejoin(n)

    @rule()
    def partitions_heal(self):
        self.net.partitions.heal()

    # -- the questions -------------------------------------------------------
    @rule(src=nodes, dst=nodes)
    def ask_pair(self, src, dst):
        check_pair(self.net, src, dst)

    @rule(src=nodes)
    def ask_reachable_from(self, src):
        assert self.net.reachable_from(src) == ref_reachable(self.net, src)

    @rule(src=nodes)
    def ask_reachable_view(self, src):
        view = self.net.transport.reachable_view(src)
        assert view == frozenset(ref_reachable(self.net, src))
        assert self.net.transport.reachable_view(src) is view

    @rule(origin=nodes, hosts=st.lists(nodes, max_size=4))
    def ask_rank(self, origin, hosts):
        assert rank_hosts(self.net, origin, hosts) == ref_rank(
            self.net, origin, hosts)

    @rule()
    def ask_everything(self):
        for src in NODES:
            assert self.net.reachable_from(src) == ref_reachable(self.net, src)
            for dst in NODES:
                check_pair(self.net, src, dst)
        assert rank_hosts(self.net, "a", NODES) == ref_rank(self.net, "a", NODES)


ConnectivityMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestConnectivityTable = ConnectivityMachine.TestCase


# -- the properties a table could quietly break -----------------------------

def test_every_unreachable_reason_is_a_new_exception():
    net = build()
    net.isolate("c")
    first = net.transport.unreachable_reason("a", "c")
    second = net.transport.unreachable_reason("a", "c")
    assert isinstance(first, PartitionFailure)
    assert first is not second
    # raising one must not lend the other a traceback
    try:
        raise first
    except PartitionFailure:
        pass
    assert first.__traceback__ is not None
    assert second.__traceback__ is None
    assert net.transport.unreachable_reason("a", "c").__traceback__ is None


def test_reachable_from_hands_back_the_callers_own_set():
    net = build()
    got = net.reachable_from("a")
    assert type(got) is set and got == set(NODES)
    got.clear()
    got.add("nowhere")
    assert net.reachable_from("a") == set(NODES)
    assert net.reachable_from("a") is not net.reachable_from("a")


def test_the_reachable_view_is_one_object_while_nothing_moves():
    net = build()
    view = net.transport.reachable_view("a")
    assert type(view) is frozenset and view == set(NODES)
    assert net.transport.reachable_view("a") is view
    assert net.reachable_from("a") == view
    # a crash behind the facade moves no epoch, yet a new view is taken
    net.node("b").crash()
    crashed = net.transport.reachable_view("a")
    assert crashed == view - {"b"}
    assert net.transport.reachable_view("a") is crashed
    net.node("b").recover()
    assert net.transport.reachable_view("a") == view
    # a down source reaches nothing
    net.node("a").crash()
    assert net.transport.reachable_view("a") == frozenset()
    assert net.reachable_from("a") == set()


def test_node_liveness_is_tested_in_front_of_the_table():
    # crash, then the topology entry restored behind the facade's back:
    # recover() now finds nothing to change there, so the epoch stands
    # still across a liveness change — which the table must not hide.
    net = build()
    net.crash("b")
    net.topology.set_node_up("b", True)
    assert not net.can_reach("a", "b")
    assert isinstance(net.transport.unreachable_reason("a", "b"),
                      NodeCrashFailure)
    assert net.expected_latency("a", "b") is None
    assert "b" not in net.reachable_from("a")
    assert rank_hosts(net, "a", ["b", "f"]) == ("f",)
    epoch = (net.topology.version, net.partitions.version)
    net.recover("b")
    assert (net.topology.version, net.partitions.version) == epoch
    assert net.can_reach("a", "b")
    assert net.expected_latency("a", "b") == 0.125
    assert "b" in net.reachable_from("a")
    assert rank_hosts(net, "a", ["b", "f"]) == ("b", "f")


def test_an_unchanged_world_asks_the_topology_once_per_pair():
    net = Network(Kernel(seed=0), line(["x", "y", "z"], FixedLatency(0.01)))
    calls = []
    route = net.topology.route
    net.topology.route = lambda src, dst: calls.append((src, dst)) or route(src, dst)

    def ask():
        for _ in range(5):
            assert net.can_reach("x", "z")
            assert net.transport.unreachable_reason("x", "z") is None
            assert net.expected_latency("x", "z") == 0.02
            assert net.reachable_from("x") == {"x", "y", "z"}
            assert rank_hosts(net, "x", ("z", "y")) == ("y", "z")

    ask()
    assert sorted(calls) == [("x", "y"), ("x", "z")]
    ask()
    assert len(calls) == 2
    # any public mutator moves the epoch; the next question recomputes
    net.cut_link("y", "z")
    assert not net.can_reach("x", "z")
    assert isinstance(net.transport.unreachable_reason("x", "z"), LinkDownFailure)
    assert net.expected_latency("x", "z") is None
    assert net.reachable_from("x") == {"x", "y"}
    assert rank_hosts(net, "x", ("z", "y")) == ("y",)
    assert len(calls) == 4
