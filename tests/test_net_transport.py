"""Lower-level transport behaviours: drops, late replies, counters."""


from repro.errors import NodeCrashFailure, ProcessKilled, TimeoutFailure
from repro.net import Address, FixedLatency, Message, Network, full_mesh
from repro.sim import Join, Kernel, Sleep


class EchoService:
    def echo(self, value):
        return value

    def slow(self, value, delay):
        yield Sleep(delay)
        return value


def make_net(**kwargs):
    kernel = Kernel()
    net = Network(kernel, full_mesh(["a", "b"], FixedLatency(0.01)), **kwargs)
    net.register_service("b", "echo", EchoService())
    return kernel, net


def test_message_reply_envelope():
    req = Message(src=Address("a", "client"), dst=Address("b", "echo"),
                  method="echo", payload=((1,), {}))
    rep = req.reply("result")
    assert rep.is_reply
    assert rep.reply_to == req.msg_id
    assert rep.src == req.dst and rep.dst == req.src
    assert rep.method.endswith("!ok")
    err = req.reply(ValueError("x"), error=True)
    assert err.method.endswith("!error")


def test_message_ids_unique():
    msgs = [Message(src=Address("a", "c"), dst=Address("b", "s"), method="m")
            for _ in range(10)]
    ids = [m.msg_id for m in msgs]
    assert len(set(ids)) == 10


def test_counters_track_sends_and_drops():
    kernel, net = make_net()

    def proc():
        for i in range(500):
            yield from net.call("a", "b", "echo", "echo", i)

    kernel.run_process(proc())
    sent_before_failures = net.kernel.obs.metrics.value("net.messages_sent")
    assert sent_before_failures == 1000     # 500 requests + 500 replies
    assert net.kernel.obs.metrics.value("net.messages_dropped") == 0

    net.crash("b")

    def proc2():
        try:
            yield from net.call("a", "b", "echo", "echo", 1)
        except NodeCrashFailure:
            pass

    kernel.run_process(proc2())
    # fail-fast means the request is never sent; counters unchanged
    assert net.kernel.obs.metrics.value("net.messages_sent") == sent_before_failures


def test_drop_at_send_when_not_fail_fast():
    kernel, net = make_net(fail_fast=False)
    net.crash("b")

    def proc():
        try:
            yield from net.call("a", "b", "echo", "echo", 1, timeout=0.5)
        except NodeCrashFailure:
            return "classified"

    # the timeout gets classified using current transport knowledge
    assert kernel.run_process(proc()) == "classified"
    assert net.kernel.obs.metrics.value("net.messages_dropped") >= 1


def test_late_reply_after_caller_timeout_is_harmless():
    kernel, net = make_net()

    def proc():
        try:
            yield from net.call("a", "b", "echo", "slow", "x", 2.0, timeout=0.5)
        except TimeoutFailure:
            return "timed out"

    assert kernel.run_process(proc()) == "timed out"
    # let the slow handler finish and send its (now unwanted) reply
    kernel.run(until=5.0)
    # nothing blew up; pending-reply table is clean
    assert net.transport._pending_replies == {}


def test_crash_mid_flight_drops_at_delivery():
    kernel, net = make_net()

    def crasher():
        yield Sleep(0.005)              # while the request is in flight
        net.crash("b")

    def proc():
        try:
            yield from net.call("a", "b", "echo", "echo", 1, timeout=0.5)
        except (NodeCrashFailure, TimeoutFailure):
            return "failed"

    kernel.spawn(crasher(), daemon=True)
    assert kernel.run_process(proc()) == "failed"
    assert net.kernel.obs.metrics.value("net.messages_dropped") >= 1


def test_node_crash_hooks_invoked():
    kernel, net = make_net()
    events = []

    class HookedService:
        def on_crash(self):
            events.append("crash")

        def on_recover(self):
            events.append("recover")

    net.register_service("a", "hooked", HookedService())
    net.crash("a")
    net.crash("a")          # idempotent: hook fires once
    net.recover("a")
    assert events == ["crash", "recover"]
    assert net.node("a").crash_count == 1


def test_a_one_argument_send_on_the_instance_sees_request_and_reply():
    """Traffic is captured by wrapping ``send`` on the transport
    instance with a one-argument function (the benchmark's codec
    corpus is recorded so): a settled RPC's request and its reply both
    go through it, each once."""
    kernel, net = make_net()
    transport = net.transport
    original = transport.send
    seen = []

    def recording_send(msg):
        seen.append(msg)
        return original(msg)

    transport.send = recording_send

    def proc():
        return (yield from net.call("a", "b", "echo", "slow", "v", 0.05,
                                    timeout=1.0))

    assert kernel.run_process(proc()) == "v"
    request, reply = seen
    assert (request.is_reply, reply.is_reply) == (False, True)
    assert reply.reply_to == request.msg_id


# -- handler tracking -----------------------------------------------------------

def test_settled_rpc_leaves_no_finished_handler_on_its_node():
    kernel, net = make_net()

    def proc():
        return (yield from net.call("a", "b", "echo", "slow", "v", 0.05))

    assert kernel.run_process(proc()) == "v"
    # not "until that node's next request": the moment it finished
    assert net.node("b")._handlers == {}


def test_crash_kills_live_handlers_in_spawn_order():
    kernel, net = make_net()
    node = net.node("b")
    killed = []

    def handler(tag):
        try:
            yield Sleep(10.0)
        finally:
            killed.append(tag)

    procs = [kernel.spawn(handler(tag), name=tag, daemon=True)
             for tag in ("first", "second", "third")]
    for proc in procs:
        node.track_handler(proc)
    quick = kernel.spawn(handler("quick"), daemon=True)
    quick.kill()                           # finished before it is tracked
    node.track_handler(quick)
    kernel.run(until=1.0)
    assert list(node._handlers.values()) == procs
    killed.clear()
    # each kill fires the handler's done signal, which removes it from
    # the table being walked: the walk must not notice
    net.crash("b")
    assert killed == ["first", "second", "third"]
    assert all(p.finished for p in procs)
    assert node._handlers == {}


def test_handler_killed_from_outside_leaves_its_node():
    kernel, net = make_net()
    node = net.node("b")

    def proc():
        try:
            yield from net.call("a", "b", "echo", "slow", "v", 5.0)
        except ProcessKilled as exc:
            return str(exc)

    caller = kernel.spawn(proc())
    kernel.run(until=0.1)
    (handler,) = node._handlers.values()
    kernel.kill(handler)
    assert node._handlers == {}

    def join():
        return (yield Join(caller))

    # the node is up, so the kill is answered; the handler is named as ever
    assert kernel.run_process(join()) == f"{handler.name} was killed"
    assert caller.result == f"{handler.name} was killed"
    assert handler.name.startswith("echo@b.slow#")
