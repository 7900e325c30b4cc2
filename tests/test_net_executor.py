"""Admission control: the bounded executor's worker pool, queue
disciplines, shedding, brownout, and crash semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NodeCrashFailure, ServerBusyFailure
from repro.net import (BoundedExecutor, ExecutorPolicy, FixedLatency, Network,
                       PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL,
                       full_mesh)
from repro.net.executor import _AGING, DISCIPLINES, _Entry
from repro.net.transport import Transport
from repro.sim import Kernel, Sleep


class WorkService:
    """A service whose handlers take real (virtual) time."""

    def __init__(self, delay=0.1):
        self.delay = delay
        self.started = []
        self.finished = []

    def work(self, tag):
        self.started.append(tag)
        yield Sleep(self.delay)
        self.finished.append(tag)
        return tag

    def fast(self, tag):
        return tag


class BrownoutService:
    """A service offering a degraded fallback for its read."""

    DEGRADED_METHODS = {"read": "read_stale"}

    def __init__(self, delay=0.1):
        self.delay = delay
        self.stale_served = 0

    def read(self):
        yield Sleep(self.delay)
        return (2, ("fresh",))

    def read_stale(self):
        self.stale_served += 1
        return (1, ("stale",), True)


def make_net(policy, service=None, nodes=("a", "b")):
    kernel = Kernel(seed=11)
    net = Network(kernel, full_mesh(list(nodes), FixedLatency(0.001)))
    service = service if service is not None else WorkService()
    net.register_service("b", "svc", service)
    net.node("b").executor = BoundedExecutor(kernel, policy, name="b")
    return kernel, net, service


def call_all(kernel, net, calls, timeout=5.0):
    """Issue ``calls`` concurrently; return {tag: outcome} where outcome
    is the result or the exception instance."""
    outcomes = {}

    def one(method, tag, priority):
        try:
            result = yield from net.call(
                "a", "b", "svc", method, tag, timeout=timeout,
                priority=priority)
        except Exception as exc:  # noqa: BLE001 - recorded for assertions
            outcomes[tag] = exc
        else:
            outcomes[tag] = result

    def driver():
        for method, tag, priority in calls:
            kernel.spawn(one(method, tag, priority), name=f"call-{tag}")
            yield Sleep(0.0001)

    kernel.spawn(driver(), name="driver")
    kernel.run(until=kernel.now + 60.0)
    return outcomes


# ---------------------------------------------------------------------------
# policy validation
# ---------------------------------------------------------------------------
def test_policy_validates_dials():
    from repro.errors import SimulationError
    with pytest.raises(SimulationError):
        ExecutorPolicy(concurrency=0)
    with pytest.raises(SimulationError):
        ExecutorPolicy(concurrency=1, queue_limit=-1)
    with pytest.raises(SimulationError):
        ExecutorPolicy(concurrency=1, discipline="random")
    with pytest.raises(TypeError):
        ExecutorPolicy()             # no executor is ``executor=None``
    for discipline in DISCIPLINES:
        assert ExecutorPolicy(concurrency=1,
                              discipline=discipline).discipline == discipline


# ---------------------------------------------------------------------------
# worker pool + queue
# ---------------------------------------------------------------------------
def test_concurrency_bounds_parallelism():
    policy = ExecutorPolicy(concurrency=2, queue_limit=10)
    kernel, net, service = make_net(policy)
    calls = [("work", f"t{i}", PRIORITY_NORMAL) for i in range(6)]
    outcomes = call_all(kernel, net, calls)
    assert all(outcomes[f"t{i}"] == f"t{i}" for i in range(6))
    # Six 0.1s jobs over 2 workers: three serialized waves, so the last
    # finish lands near 0.3s — impossible under unbounded spawning.
    executor = net.node("b").executor
    assert executor.running == 0
    assert executor.queue_depth == 0
    metrics = kernel.obs.metrics
    assert metrics.value("overload.admitted") == 6
    assert metrics.value("overload.shed") == 0


def test_queue_overflow_sheds_with_retry_after():
    # 1 worker, queue of 1: the third concurrent request is shed.
    policy = ExecutorPolicy(concurrency=1, queue_limit=1)
    kernel, net, _ = make_net(policy)
    calls = [("work", f"t{i}", PRIORITY_NORMAL) for i in range(3)]
    outcomes = call_all(kernel, net, calls)
    shed = [o for o in outcomes.values() if isinstance(o, ServerBusyFailure)]
    ok = [o for o in outcomes.values() if not isinstance(o, Exception)]
    assert len(shed) == 1 and len(ok) == 2
    assert shed[0].retry_after > 0.0
    assert kernel.obs.metrics.value("overload.shed") == 1


def test_zero_queue_sheds_everything_past_workers():
    policy = ExecutorPolicy(concurrency=1, queue_limit=0)
    kernel, net, _ = make_net(policy)
    calls = [("work", f"t{i}", PRIORITY_NORMAL) for i in range(4)]
    outcomes = call_all(kernel, net, calls)
    shed = [o for o in outcomes.values() if isinstance(o, ServerBusyFailure)]
    assert len(shed) == 3


def test_fast_methods_pass_admission_too():
    """Fast (non-generator) methods queue behind slow ones when the
    server saturates — this is what lets pings observe overload."""
    policy = ExecutorPolicy(concurrency=1, queue_limit=0)
    kernel, net, _ = make_net(policy)
    calls = [("work", "slow", PRIORITY_NORMAL),
             ("fast", "quick", PRIORITY_NORMAL)]
    outcomes = call_all(kernel, net, calls)
    assert outcomes["slow"] == "slow"
    assert isinstance(outcomes["quick"], ServerBusyFailure)


def test_retry_after_scales_with_backlog():
    kernel = Kernel(seed=3)
    policy = ExecutorPolicy(concurrency=2, queue_limit=100)
    executor = BoundedExecutor(kernel, policy, name="x")
    executor.ewma_service_time = 0.1
    shallow = executor.retry_after()
    for _ in range(10):
        executor._enqueue(PRIORITY_NORMAL, lambda release: None,
                          lambda exc: None)
    assert executor.retry_after() > shallow


# ---------------------------------------------------------------------------
# disciplines
# ---------------------------------------------------------------------------
def test_fifo_rejects_the_newcomer():
    policy = ExecutorPolicy(concurrency=1, queue_limit=1, discipline="fifo")
    kernel, net, _ = make_net(policy)
    calls = [("work", f"t{i}", PRIORITY_NORMAL) for i in range(3)]
    outcomes = call_all(kernel, net, calls)
    assert outcomes["t0"] == "t0"
    assert outcomes["t1"] == "t1"
    assert isinstance(outcomes["t2"], ServerBusyFailure)


def test_priority_dispatch_runs_urgent_first():
    policy = ExecutorPolicy(concurrency=1, queue_limit=10,
                            discipline="priority")
    kernel, net, service = make_net(policy)
    calls = [("work", "first", PRIORITY_NORMAL),
             ("work", "bg", PRIORITY_LOW),
             ("work", "read", PRIORITY_NORMAL),
             ("work", "probe", PRIORITY_HIGH)]
    outcomes = call_all(kernel, net, calls)
    assert all(not isinstance(o, Exception) for o in outcomes.values())
    # "first" occupies the worker; the queue drains urgent-first.
    assert service.started == ["first", "probe", "read", "bg"]


def test_priority_full_queue_sheds_lowest_class_first():
    policy = ExecutorPolicy(concurrency=1, queue_limit=2,
                            discipline="priority")
    kernel, net, _ = make_net(policy)
    # worker: t0.  queue: [bg, normal].  A HIGH arrival must displace
    # the background entry, not be rejected.
    calls = [("work", "t0", PRIORITY_NORMAL),
             ("work", "bg", PRIORITY_LOW),
             ("work", "mid", PRIORITY_NORMAL),
             ("work", "probe", PRIORITY_HIGH)]
    outcomes = call_all(kernel, net, calls)
    assert isinstance(outcomes["bg"], ServerBusyFailure)
    assert outcomes["probe"] == "probe"
    assert outcomes["mid"] == "mid"


def test_priority_newcomer_rejected_when_queue_is_all_urgent():
    policy = ExecutorPolicy(concurrency=1, queue_limit=2,
                            discipline="priority")
    kernel, net, _ = make_net(policy)
    calls = [("work", "t0", PRIORITY_NORMAL),
             ("work", "r1", PRIORITY_NORMAL),
             ("work", "r2", PRIORITY_NORMAL),
             ("work", "bg", PRIORITY_LOW)]
    outcomes = call_all(kernel, net, calls)
    assert isinstance(outcomes["bg"], ServerBusyFailure)
    assert outcomes["r1"] == "r1" and outcomes["r2"] == "r2"


def _flood_with_one_background():
    """Park one LOW request behind a read flood that outpaces service;
    return (outcomes, started-order)."""
    policy = ExecutorPolicy(concurrency=1, queue_limit=50,
                            discipline="priority")
    kernel, net, service = make_net(policy)
    outcomes = {}

    def one(method, tag, priority, timeout=30.0):
        try:
            result = yield from net.call("a", "b", "svc", method, tag,
                                         timeout=timeout, priority=priority)
        except Exception as exc:  # noqa: BLE001
            outcomes[tag] = exc
        else:
            outcomes[tag] = result

    def driver():
        # Saturate, then park one background request in the queue.
        kernel.spawn(one("work", "seed", PRIORITY_NORMAL), name="seed")
        yield Sleep(0.005)
        kernel.spawn(one("work", "bg", PRIORITY_LOW), name="bg")
        # Read flood faster than service (30ms gaps vs 100ms jobs): the
        # queue never empties of NORMAL readers while it lasts.
        for i in range(30):
            kernel.spawn(one("work", f"read-{i}", PRIORITY_NORMAL),
                         name=f"read-{i}")
            yield Sleep(0.03)

    kernel.spawn(driver(), name="driver")
    kernel.run(until=60.0)
    return outcomes, service.started


def test_aging_prevents_background_starvation():
    """Priority-inversion coverage: a queued LOW request gains one class
    per half second of waiting, so it is promoted past a sustained
    NORMAL read flood instead of starving behind it."""
    outcomes, started = _flood_with_one_background()
    assert outcomes["bg"] == "bg"
    # Readers go first while its wait is short; it is promoted
    # mid-flood, not served after the flood drained.
    assert 5 < started.index("bg") < len(started) - 5


# ---------------------------------------------------------------------------
# the priority scan is the choice it replaced
# ---------------------------------------------------------------------------
def _queued(entries, now):
    """A priority executor at ``now`` holding ``entries`` ((priority,
    enqueued_at) in seq order); returns it and the tags of the entries
    and newcomers its shed callbacks were handed."""
    kernel = Kernel(seed=0)
    kernel.clock.advance_to(now)
    executor = BoundedExecutor(
        kernel, ExecutorPolicy(concurrency=1, queue_limit=len(entries),
                               discipline="priority"), name="b")
    executor.running = 1                 # saturated: nothing dispatches
    shed = []
    for seq, (priority, enqueued_at) in enumerate(entries, start=1):
        executor._queue.append(_Entry(priority, enqueued_at, seq, None,
                                      lambda exc, seq=seq: shed.append(seq)))
    executor._seq = len(entries)
    return executor, shed


def _reference_keys(entries, now):
    return [(p - (now - t) / 0.5, seq)
            for seq, (p, t) in enumerate(entries, start=1)]


_QUEUES = st.floats(min_value=0.0, max_value=5.0).flatmap(
    lambda now: st.tuples(
        st.just(now),
        st.lists(st.tuples(st.integers(0, 2),
                           st.floats(min_value=0.0, max_value=now)),
                 min_size=1, max_size=12)))


@settings(max_examples=200, deadline=None)
@given(_QUEUES, st.integers(0, 2))
def test_the_priority_scan_picks_and_sheds_what_min_and_max_chose(
        queue, newcomer):
    now, entries = queue
    keys = _reference_keys(entries, now)
    assert _AGING == 0.5
    # _pick removes the first most urgent entry
    executor, _ = _queued(entries, now)
    best = min(range(len(keys)), key=lambda i: keys[i])
    assert executor._pick().seq == best + 1
    assert [e.seq for e in executor._queue] == \
        [seq for seq in range(1, len(entries) + 1) if seq != best + 1]
    # _shed_for sheds the first least urgent entry, or the newcomer when
    # everything queued is at least as urgent as it
    executor, shed = _queued(entries, now)
    victim = max(range(len(keys)), key=lambda i: keys[i])
    executor._shed_for(newcomer, None, lambda exc: shed.append("newcomer"))
    if keys[victim][0] <= newcomer:
        assert shed == ["newcomer"]
        assert len(executor._queue) == len(entries)
    else:
        assert shed == [victim + 1]
        assert executor._queue[-1].seq == len(entries) + 1
        assert executor._queue[-1].priority == newcomer


@pytest.mark.parametrize("entries, picked, shed", [
    # equal keys (1 - 0.5/0.5 == 2 - 1.0/0.5 == 0.0): seq decides
    ([(1, 0.5), (2, 0.0)], 1, 2),
    # aging decides: the older normal-class entry outranks a fresh one
    ([(1, 0.5), (0, 0.0)], 2, 1),
])
def test_a_pinned_near_tie_is_decided_as_min_and_max_decided(entries, picked,
                                                              shed):
    executor, _ = _queued(entries, 1.0)
    assert executor._pick().seq == picked
    executor, rejected = _queued(entries, 1.0)
    # a newcomer more urgent than any class: a queued entry is the victim
    executor._shed_for(-1, None, lambda exc: rejected.append("newcomer"))
    assert rejected == [shed]


# ---------------------------------------------------------------------------
# brownout
# ---------------------------------------------------------------------------
def test_brownout_serves_degraded_reads_when_queue_deep():
    # brownout starts at half the queue limit: one queued request
    policy = ExecutorPolicy(concurrency=1, queue_limit=2, brownout=True)
    service = BrownoutService()
    kernel = Kernel(seed=5)
    net = Network(kernel, full_mesh(["a", "b"], FixedLatency(0.001)))
    net.register_service("b", "svc", service)
    net.node("b").executor = BoundedExecutor(kernel, policy, name="b")
    results = []

    def one():
        reply = yield from net.call("a", "b", "svc", "read", timeout=5.0)
        results.append(reply)

    def driver():
        for _ in range(5):
            kernel.spawn(one(), name="r")
            yield Sleep(0.0001)

    kernel.spawn(driver(), name="driver")
    kernel.run(until=10.0)
    assert len(results) == 5
    degraded = [r for r in results if len(r) == 3 and r[2]]
    fresh = [r for r in results if len(r) == 2]
    # Queue ran deep: later arrivals got the stale snapshot instantly.
    assert degraded and fresh
    assert service.stale_served == len(degraded)
    assert kernel.obs.metrics.value("overload.brownout_served") == len(degraded)


def test_no_brownout_without_degraded_table():
    # WorkService has no DEGRADED_METHODS: deep queues shed, never degrade.
    policy = ExecutorPolicy(concurrency=1, queue_limit=1, brownout=True)
    kernel, net, _ = make_net(policy)
    calls = [("work", f"t{i}", PRIORITY_NORMAL) for i in range(3)]
    outcomes = call_all(kernel, net, calls)
    assert kernel.obs.metrics.value("overload.brownout_served") == 0
    assert any(isinstance(o, ServerBusyFailure) for o in outcomes.values())


# ---------------------------------------------------------------------------
# crash semantics
# ---------------------------------------------------------------------------
def test_crash_clears_queue_and_stales_releases():
    policy = ExecutorPolicy(concurrency=1, queue_limit=10)
    kernel, net, service = make_net(policy)
    executor = net.node("b").executor

    def one(tag):
        try:
            yield from net.call("a", "b", "svc", "work", tag, timeout=0.5)
        except Exception:  # noqa: BLE001 - crash kills these calls
            pass

    def driver():
        for i in range(4):
            kernel.spawn(one(f"t{i}"), name=f"t{i}")
        yield Sleep(0.05)              # one running, three queued
        assert executor.running == 1
        assert executor.queue_depth == 3
        net.crash("b")
        assert executor.running == 0
        assert executor.queue_depth == 0
        yield Sleep(1.0)
        net.recover("b")
        result = yield from net.call("a", "b", "svc", "work", "post",
                                     timeout=5.0)
        assert result == "post"

    kernel.run_process(driver())
    # Accounting survived the crash: no negative/leaked slots.
    assert executor.running == 0
    assert executor.queue_depth == 0
    assert kernel.obs.metrics.value("overload.queue_depth") == 0


class LoggingService(WorkService):
    """A work service that logs its handlers and its crash hook in
    one order."""

    def __init__(self):
        super().__init__(delay=1.0)
        self.log = []

    def work(self, tag):
        self.log.append(f"start {tag}")
        yield Sleep(self.delay)
        self.log.append(f"end {tag}")
        return tag

    def on_crash(self):
        self.log.append("on_crash")


def test_a_crash_admits_no_queued_request_onto_the_dead_node():
    # The running handler's kill releases its slot; were the executor
    # still on the old epoch then, the queued request would start on a
    # node that is going down, and run after its crash hook.
    policy = ExecutorPolicy(concurrency=1, queue_limit=4)
    kernel, net, service = make_net(policy, LoggingService())
    executor = net.node("b").executor

    def one(tag):
        try:
            yield from net.call("a", "b", "svc", "work", tag, timeout=5.0)
        except Exception:  # noqa: BLE001 - crash kills these calls
            pass

    def driver():
        kernel.spawn(one("r1"), name="r1")
        kernel.spawn(one("r2"), name="r2")
        yield Sleep(0.5)               # r1 running, r2 queued
        assert executor.queue_depth == 1
        ewma = executor.ewma_service_time
        net.crash("b")
        # A killed handler is no completed service: it feeds no sample
        # into the estimate retry_after() reads.
        assert executor.ewma_service_time == ewma
        yield Sleep(5.0)

    kernel.run_process(driver())
    assert service.log == ["start r1", "on_crash"]
    assert executor.running == 0
    assert executor.queue_depth == 0
    assert net.node("b")._handlers == {}


def test_a_handler_killed_mid_run_releases_once_and_replies_never(
        monkeypatch):
    # The reply callback is the killed handler's one waiter: it forgets
    # the handler, releases its slot once (stale by then: the crash
    # reset the executor) and sends nothing from the dead node.
    policy = ExecutorPolicy(concurrency=1, queue_limit=4)
    kernel, net, service = make_net(policy, WorkService(delay=1.0))
    node = net.node("b")
    released, replies, outcomes = [], [], {}
    execute, send = Transport._execute_request, Transport.send

    def executing(self, node, msg, release=None):
        def counted():
            released.append(msg.payload[0][0])
            release()
        return execute(self, node, msg, counted)

    def sending(self, msg):
        if msg.src.node == "b":
            replies.append(msg.payload)
        return send(self, msg)

    monkeypatch.setattr(Transport, "_execute_request", executing)
    monkeypatch.setattr(Transport, "send", sending)

    def one(tag):
        try:
            outcomes[tag] = yield from net.call("a", "b", "svc", "work", tag,
                                                timeout=3.0)
        except Exception as exc:  # noqa: BLE001 - recorded for assertions
            outcomes[tag] = exc

    def driver():
        kernel.spawn(one("r1"), name="r1")
        yield Sleep(0.5)                   # r1 is half way through
        assert (node.executor.running, len(node._handlers)) == (1, 1)
        net.crash("b")
        assert (released, replies, node._handlers) == (["r1"], [], {})
        yield Sleep(5.0)
        net.recover("b")
        kernel.spawn(one("r2"), name="r2")
        yield Sleep(5.0)

    kernel.run_process(driver())
    assert released == ["r1", "r2"]
    assert replies == ["r2"]
    assert isinstance(outcomes["r1"], NodeCrashFailure)
    assert outcomes["r2"] == "r2"
    assert (service.started, service.finished) == (["r1", "r2"], ["r2"])
    assert node.executor.running == 0
    assert node._handlers == {}


def test_reply_priority_mirrors_request():
    from repro.net import Address, Message
    req = Message(src=Address("a", "client"), dst=Address("b", "svc"),
                  method="m", priority=PRIORITY_LOW)
    assert req.reply("x").priority == PRIORITY_LOW
