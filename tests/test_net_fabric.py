"""Integration tests for the Network facade: RPC, crashes, partitions."""

import pytest

from repro.errors import (
    FailureException,
    NodeCrashFailure,
    PartitionFailure,
    SimulationError,
    TimeoutFailure,
)
from repro.net import FixedLatency, Network, full_mesh
from repro.sim import Kernel, Sleep

from helpers import line


class EchoService:
    def __init__(self):
        self.calls = 0

    def echo(self, value):
        self.calls += 1
        return value

    def add(self, a, b=0):
        return a + b

    def boom(self):
        raise ValueError("service exploded")

    def slow_echo(self, value, delay):
        yield Sleep(delay)
        return value


def make_net(seed=0, nodes=("client", "server"), latency=0.01, **kwargs):
    kernel = Kernel(seed=seed)
    topo = full_mesh(nodes, FixedLatency(latency))
    net = Network(kernel, topo, **kwargs)
    return kernel, net


def test_rpc_round_trip():
    kernel, net = make_net()
    net.register_service("server", "echo", EchoService())

    def client():
        result = yield from net.call("client", "server", "echo", "echo", "hi")
        return result

    assert kernel.run_process(client()) == "hi"
    assert kernel.now == pytest.approx(0.02)  # one RTT


def test_rpc_kwargs():
    kernel, net = make_net()
    net.register_service("server", "echo", EchoService())

    def client():
        return (yield from net.call("client", "server", "echo", "add", 40, b=2))

    assert kernel.run_process(client()) == 42


def test_rpc_remote_exception_propagates():
    kernel, net = make_net()
    net.register_service("server", "echo", EchoService())

    def client():
        try:
            yield from net.call("client", "server", "echo", "boom")
        except ValueError as exc:
            return str(exc)

    assert kernel.run_process(client()) == "service exploded"


def test_rpc_generator_handler_takes_simulated_time():
    kernel, net = make_net()
    net.register_service("server", "echo", EchoService())

    def client():
        return (yield from net.call("client", "server", "echo", "slow_echo", "x", 1.0))

    assert kernel.run_process(client()) == "x"
    assert kernel.now == pytest.approx(1.02)


def test_rpc_to_crashed_node_fails_fast():
    kernel, net = make_net()
    net.register_service("server", "echo", EchoService())
    net.crash("server")

    def client():
        try:
            yield from net.call("client", "server", "echo", "echo", "hi")
        except NodeCrashFailure:
            t = kernel.now
            return ("crash-detected", t)

    kind, t = kernel.run_process(client())
    assert kind == "crash-detected"
    assert t < 1.0  # detection delay, not the full timeout


def test_rpc_across_partition_fails_with_partition_failure():
    kernel, net = make_net()
    net.register_service("server", "echo", EchoService())
    net.split(["client"], ["server"])

    def client():
        try:
            yield from net.call("client", "server", "echo", "echo", "hi")
        except PartitionFailure:
            return "partitioned"

    assert kernel.run_process(client()) == "partitioned"


def test_rpc_after_heal_succeeds():
    kernel, net = make_net()
    net.register_service("server", "echo", EchoService())
    net.isolate("server")

    def client():
        try:
            yield from net.call("client", "server", "echo", "echo", 1)
        except FailureException:
            pass
        net.heal()
        return (yield from net.call("client", "server", "echo", "echo", 2))

    assert kernel.run_process(client()) == 2


def test_crash_during_handling_means_timeout():
    kernel, net = make_net()
    net.register_service("server", "echo", EchoService())

    def crasher():
        yield Sleep(0.5)
        net.crash("server")

    def client():
        try:
            yield from net.call(
                "client", "server", "echo", "slow_echo", "x", 2.0, timeout=3.0
            )
        except FailureException as exc:
            return type(exc).__name__

    kernel.spawn(crasher())
    # crash is detected when the reply never comes; by then the transport
    # knows the cause, so the failure is classified as a crash
    assert kernel.run_process(client()) in {"NodeCrashFailure", "TimeoutFailure"}


def test_no_fail_fast_burns_full_timeout():
    kernel, net = make_net(fail_fast=False)
    net.register_service("server", "echo", EchoService())
    net.crash("server")

    def client():
        try:
            yield from net.call("client", "server", "echo", "echo", 1, timeout=2.0)
        except FailureException:
            return kernel.now

    assert kernel.run_process(client()) == pytest.approx(2.0)


def test_unknown_rpc_method_is_error():
    kernel, net = make_net()
    net.register_service("server", "echo", EchoService())

    def client():
        try:
            yield from net.call("client", "server", "echo", "nope")
        except SimulationError as exc:
            return "no method" if "no RPC method" in str(exc) else "other"

    assert kernel.run_process(client()) == "no method"


def test_private_method_not_callable():
    kernel, net = make_net()
    net.register_service("server", "echo", EchoService())

    def client():
        try:
            yield from net.call("client", "server", "echo", "_private")
        except SimulationError:
            return "denied"

    assert kernel.run_process(client()) == "denied"


def test_reachable_from():
    kernel = Kernel()
    topo = line(["a", "b", "c"], FixedLatency(0.01))
    net = Network(kernel, topo)
    assert net.reachable_from("a") == {"a", "b", "c"}
    net.cut_link("b", "c")
    assert net.reachable_from("a") == {"a", "b"}
    net.restore_link("b", "c")
    net.crash("b")
    # b down cuts the only path to c
    assert net.reachable_from("a") == {"a"}
    assert net.reachable_from("b") == set()


def test_multihop_rpc_latency_adds_up():
    kernel = Kernel()
    topo = line(["a", "b", "c"], FixedLatency(0.05))
    net = Network(kernel, topo)
    net.register_service("c", "echo", EchoService())

    def client():
        return (yield from net.call("a", "c", "echo", "echo", "hi"))

    assert kernel.run_process(client()) == "hi"
    assert kernel.now == pytest.approx(0.2)  # 2 hops x 2 directions x 50ms


def test_expected_latency_none_when_unreachable():
    kernel, net = make_net()
    net.isolate("server")
    assert net.expected_latency("client", "server") is None
    net.heal()
    assert net.expected_latency("client", "server") == pytest.approx(0.01)


def test_crashed_caller_raises():
    kernel, net = make_net()
    net.crash("client")

    def client():
        yield from net.call("client", "server", "echo", "echo", 1)

    proc = kernel.spawn(client())
    kernel.run()
    assert isinstance(proc.error, SimulationError)
