"""NetworkStats accounting."""

import pytest

from repro.net import FixedLatency, Network, full_mesh
from repro.sim import Kernel


class Echo:
    def echo(self, x):
        return x


def test_counts_per_node_and_aggregate():
    kernel = Kernel()
    net = Network(kernel, full_mesh(["a", "b", "c"], FixedLatency(0.01)))
    net.register_service("b", "echo", Echo())
    net.register_service("c", "echo", Echo())

    def proc():
        for _ in range(3):
            yield from net.call("a", "b", "echo", "echo", 1)
        yield from net.call("a", "c", "echo", "echo", 1)

    kernel.run_process(proc())
    stats = net.transport.stats
    assert stats.total_sent.value == 8              # 4 requests + 4 replies
    assert stats.total_delivered.value == 8
    assert stats.total_dropped.value == 0
    assert stats.delivery_rate == 1.0
    assert stats.node("a").sent == 4
    assert stats.node("b").requests_handled == 3
    assert stats.node("c").requests_handled == 1
    assert stats.node("a").requests_handled == 0   # replies aren't requests


def test_reading_per_node_creates_no_entry():
    kernel = Kernel()
    net = Network(kernel, full_mesh(["a", "b", "c"], FixedLatency(0.01)))
    net.register_service("b", "echo", Echo())
    kernel.run_process(net.call("a", "b", "echo", "echo", 1))
    stats = net.transport.stats
    assert set(stats.per_node) == {"a", "b"}        # c never sent or received
    with pytest.raises(KeyError):
        stats.per_node["c"]
    assert set(stats.per_node) == {"a", "b"}


def test_drops_counted():
    kernel = Kernel()
    net = Network(kernel, full_mesh(["a", "b"], FixedLatency(0.01)),
                  fail_fast=False)
    net.register_service("b", "echo", Echo())
    net.crash("b")

    def proc():
        from repro.errors import FailureException
        try:
            yield from net.call("a", "b", "echo", "echo", 1, timeout=0.2)
        except FailureException:
            pass

    kernel.run_process(proc())
    stats = net.transport.stats
    assert stats.total_dropped.value == 1
    assert stats.delivery_rate == 0.0


def test_busiest_nodes_ranking():
    kernel = Kernel()
    net = Network(kernel, full_mesh(["a", "b", "c"], FixedLatency(0.01)))
    net.register_service("b", "echo", Echo())
    net.register_service("c", "echo", Echo())

    def proc():
        for _ in range(5):
            yield from net.call("a", "b", "echo", "echo", 1)
        yield from net.call("a", "c", "echo", "echo", 1)

    kernel.run_process(proc())
    ranking = net.transport.stats.busiest_nodes(k=2)
    assert ranking[0] == ("b", 5)
    assert ranking[1] == ("c", 1)


def test_str_representations():
    kernel = Kernel()
    net = Network(kernel, full_mesh(["a", "b"], FixedLatency(0.01)))
    stats = net.transport.stats
    assert "sent=0" in str(stats)
    assert "handled=0" in str(stats.node("a"))
