"""In-flight loss accounting: drops at delivery time and reply hygiene.

Messages that die *between* send and delivery (destination crashes or
partitions while they are on the wire) must be counted as drops, and a
reply that does land late — or never — must not fire a stale
:class:`~repro.sim.events.Signal` into a caller that has moved on.
"""


from repro.errors import NodeCrashFailure, PartitionFailure, TimeoutFailure
from repro.net import Address, FixedLatency, Message, Network, full_mesh
from repro.sim import Kernel, Signal, Sleep


class EchoService:
    def echo(self, value):
        return value

    def slow(self, value, delay):
        yield Sleep(delay)
        return value


def make_net(**kwargs):
    kernel = Kernel()
    net = Network(kernel, full_mesh(["a", "b"], FixedLatency(0.05)), **kwargs)
    net.register_service("b", "echo", EchoService())
    return kernel, net


def test_request_lost_to_crash_in_flight_counts_as_drop():
    kernel, net = make_net()
    registry = kernel.obs.metrics

    def crasher():
        yield Sleep(0.01)                 # request is mid-flight (0.05s link)
        net.crash("b")

    def caller():
        try:
            yield from net.call("a", "b", "echo", "echo", 1, timeout=0.5)
        except (NodeCrashFailure, TimeoutFailure):
            return "failed"

    kernel.spawn(crasher(), daemon=True)
    assert kernel.run_process(caller()) == "failed"
    assert registry.value("net.messages_dropped") == 1
    assert registry.value("net.messages_sent") == 1    # it *was* sent toward b
    assert registry.value("net.messages_delivered") == 0
    # the caller's pending-reply entry is cleaned up, not leaked
    assert net.transport._pending_replies == {}


def test_reply_lost_to_partition_in_flight_counts_and_stays_silent():
    kernel, net = make_net()
    registry = kernel.obs.metrics

    def splitter():
        # Request (0.05s) arrives, handler replies instantly; cut the
        # network while the reply is on its way back.
        yield Sleep(0.07)
        net.split(["a"], ["b"])

    def caller():
        try:
            yield from net.call("a", "b", "echo", "echo", 1, timeout=0.5)
        except (PartitionFailure, TimeoutFailure):
            return "failed"

    kernel.spawn(splitter(), daemon=True)
    assert kernel.run_process(caller()) == "failed"
    assert registry.value("net.messages_dropped") == 1     # the reply died at delivery
    assert registry.value("net.messages_delivered") == 1   # only the request landed
    # the caller's signal was resolved exactly once (by its failure);
    # nothing remains for the dead reply to complete later.
    kernel.run(until=5.0)
    assert net.transport._pending_replies == {}


def test_late_reply_after_timeout_never_fires_stale_signal():
    kernel, net = make_net()

    def caller():
        try:
            yield from net.call("a", "b", "echo", "slow", "x", 1.0, timeout=0.2)
        except TimeoutFailure:
            return "timed out"

    assert kernel.run_process(caller()) == "timed out"
    # The handler is still running; when its reply lands, the one-shot
    # signal protocol must swallow it (a double fire would raise
    # SimulationError inside the kernel and surface here).
    kernel.run(until=5.0)
    assert net.transport._pending_replies == {}


def test_reply_to_zero_is_a_valid_correlation_id():
    # Regression: `msg.reply_to or -1` treated a legitimate id of 0 as
    # "not a reply" and orphaned that caller forever.
    kernel, net = make_net()
    transport = net.transport
    request = Message(src=Address("a", "client"), dst=Address("b", "echo"),
                      method="echo", payload=((1,), {}), msg_id=0)
    sig = Signal(name="reply#0")
    transport._pending_replies[0] = sig
    reply = request.reply("answer")
    assert reply.reply_to == 0
    transport._complete_reply(reply)
    assert sig.fired
    assert sig.value == "answer"
    assert transport._pending_replies == {}


def test_reply_without_correlation_id_is_ignored():
    kernel, net = make_net()
    orphan = Message(src=Address("b", "echo"), dst=Address("a", "client"),
                     method="echo!ok", payload="x", is_reply=True,
                     reply_to=None)
    net.transport._complete_reply(orphan)     # must not raise or pop anything
    assert net.transport._pending_replies == {}
