"""Message accounting: the transport's registry counters."""

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
    registry = kernel.obs.metrics
    assert registry.value("net.messages_sent") == 8       # 4 requests + 4 replies
    assert registry.value("net.messages_delivered") == 8
    assert registry.value("net.messages_dropped") == 0
    # Who was asked what is the trace's: one rpc.attempt span per request.
    attempts = kernel.obs.tracer.spans("rpc.attempt")
    assert [span.attrs["dst"] for span in attempts] == ["b", "b", "b", "c"]
    assert {span.attrs["src"] for span in attempts} == {"a"}


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
    registry = kernel.obs.metrics
    assert registry.value("net.messages_sent") == 1
    assert registry.value("net.messages_dropped") == 1
    assert registry.value("net.messages_delivered") == 0
