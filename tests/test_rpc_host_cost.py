"""What one RPC costs the host, counted.

The rule these tests pin: nothing per message is formatted, re-derived,
allocated or re-walked unless the simulation or an attached reader uses
the result.  They count calls (exact, seed-free), not seconds; that the
counts buy time is ``perf/``'s job.  Each mechanism is then held to the
behaviour it replaced: the same name strings when something does read
them, the same bucket for every float, the same sequence numbers as the
frozen seed kernel.
"""

import gc
import math
import pickle
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TimeoutFailure
from repro.net import Address, FixedLatency, Message, Network, full_mesh
from repro.net.topology import Topology
from repro.net.transport import Transport
from repro.obs import DEFAULT_LATENCY_BUCKETS, Histogram, MetricsRegistry
from repro.sim import Join, Kernel, Signal, Sleep, Wait
from repro.sim import process as sim_process
from repro.store import Repository
from repro.store.elements import Element

from helpers import CLIENT, standard_world
from seed_kernel import Kernel as SeedKernel


class EchoService:
    def echo(self, value):
        return value

    def slow(self, value, delay):
        yield Sleep(delay)
        return value


def two_nodes(**kernel_kwargs):
    kernel = Kernel(**kernel_kwargs)
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
    }
    sent = net.transport.stats.total_sent.value
    assert kernel.run_process(rpc(net, method, *args), name="") == "v"
    assert net.transport.stats.total_sent.value == sent + 2
    assert {what: calls[0] for what, calls in counted.items()} == \
        dict.fromkeys(counted, 0)


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


def test_a_traced_run_records_the_same_text():
    kernel, net = two_nodes(trace=True)
    assert kernel.run_process(rpc(net, "slow", "v", 0.05), name="caller") == "v"
    records = [(rec.kind, rec.fields) for rec in kernel.trace.records()]
    (request_id,) = [int(fields["msg"].split()[1][1:])
                     for kind, fields in records
                     if kind == "send" and fields["msg"].startswith("call")]
    reply_id = request_id + 1
    handler = f"echo@b.slow#{request_id}"
    call = f"call #{request_id} client@a -> echo@b slow"
    reply = f"reply #{reply_id} echo@b -> client@a slow!ok"
    # the parent tree's records, text for text
    assert records == [
        ("spawn", {"process": "caller"}),
        ("send", {"msg": call, "delay": 0.01, "size": 46}),
        ("recv", {"msg": call}),
        ("spawn", {"process": handler}),
        ("send", {"msg": reply, "delay": 0.01, "size": 32}),
        ("finish", {"process": handler}),
        ("recv", {"msg": reply}),
        ("finish", {"process": "caller"}),
    ]


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
        return held                       # kept by ``done`` past the frame

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


# -- a wait takes the sequence numbers it always took ----------------------------

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
def test_waits_consume_the_seed_kernels_sequence_numbers(split):
    observed = []
    for factory in (SeedKernel, Kernel):
        kernel = factory(seed=1)
        log = []
        _waits(kernel, log)
        if split is not None:
            kernel.run(until=split)
            log.append((kernel.now, "--split--", next(kernel._seq)))
        kernel.run()
        observed.append((log, kernel.now, next(kernel._seq)))
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
