"""The resilience layer: retries, breakers, hedging, failover."""

import pytest

from repro.errors import (
    CircuitOpenFailure,
    NodeCrashFailure,
    TimeoutFailure,
    UnreachableObjectFailure,
)
from repro.net import (
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    FixedLatency,
    Network,
    ResilientClient,
    RetryPolicy,
    full_mesh,
)
from repro.sim import Kernel, Sleep
from repro.spec import Returned
from repro.store import Repository
from repro.weaksets import DynamicSet

from helpers import CLIENT, drain_all, failover_fetch, standard_world


class EchoService:
    def echo(self, value):
        return value

    def slow(self, value, delay):
        yield Sleep(delay)
        return value

    def boom(self):
        raise UnreachableObjectFailure("application-level, from a live server")


def make_net(nodes=("a", "b", "c"), latency=0.01, **kwargs):
    kernel = Kernel()
    net = Network(kernel, full_mesh(list(nodes), FixedLatency(latency)), **kwargs)
    for node in nodes:
        net.register_service(node, "echo", EchoService())
    return kernel, net


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------
def test_retry_classification():
    policy = RetryPolicy()
    assert policy.is_retryable(TimeoutFailure("t"))
    assert policy.is_retryable(NodeCrashFailure("c"))
    assert policy.is_retryable(CircuitOpenFailure("o"))
    # A live server answered: application failures are not transport retries.
    assert not policy.is_retryable(UnreachableObjectFailure("app"))
    assert not policy.is_retryable(ValueError("bug"))


def test_backoff_is_deterministic_and_bounded():
    policy = RetryPolicy(base_delay=0.1, max_delay=0.5)
    delays_a = [Kernel(seed=7).stream("x").uniform(0, 1) for _ in range(1)]  # warm-up style
    s1 = Kernel(seed=7).stream("backoff")
    s2 = Kernel(seed=7).stream("backoff")
    seq1 = [policy.backoff(i, s1) for i in range(1, 6)]
    seq2 = [policy.backoff(i, s2) for i in range(1, 6)]
    assert seq1 == seq2                       # same seed, same schedule
    # Full jitter: each delay is uniform in [0, nominal] — the whole
    # range is legal, and the cap still binds.
    for attempt, delay in enumerate(seq1, start=1):
        nominal = min(0.5, 0.1 * 2.0 ** (attempt - 1))
        assert 0.0 <= delay <= nominal
    assert delays_a  # silence lint on the warm-up draw


def test_backoff_without_jitter_is_exact():
    class Top:
        """A stream whose uniform draw is the top of its range: the
        nominal delay the full jitter draws under."""

        def uniform(self, low, high):
            return high

    policy = RetryPolicy(base_delay=0.1, max_delay=0.5)
    ladder = [policy.backoff(attempt, Top()) for attempt in range(1, 5)]
    assert ladder == pytest.approx([0.1, 0.2, 0.4, 0.5])   # capped


# ---------------------------------------------------------------------------
# CircuitBreaker state machine
# ---------------------------------------------------------------------------
def test_breaker_trips_after_threshold():
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=3, cooldown=1.0))
    assert breaker.state is BreakerState.CLOSED
    assert not breaker.record_failure(0.0)
    assert not breaker.record_failure(0.1)
    assert breaker.record_failure(0.2)        # third strike trips it
    assert breaker.state is BreakerState.OPEN
    assert breaker.trips == 1
    assert not breaker.allow(0.5)             # inside cooldown: fail fast
    assert breaker.allow(1.3)                 # cooldown over: half-open probe
    assert breaker.state is BreakerState.HALF_OPEN
    assert not breaker.allow(1.3)             # only one probe at a time


def test_breaker_probe_success_closes():
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1, cooldown=1.0))
    assert breaker.record_failure(0.0)
    assert breaker.allow(1.5)
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.allow(1.6)


def test_breaker_probe_failure_reopens():
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1, cooldown=1.0))
    assert breaker.record_failure(0.0)
    assert breaker.allow(1.5)                 # half-open
    assert breaker.record_failure(1.6)        # probe failed: open again
    assert breaker.state is BreakerState.OPEN
    assert breaker.trips == 2
    assert not breaker.allow(2.0)             # new cooldown from 1.6
    assert breaker.allow(2.7)


def test_breaker_success_resets_failure_run():
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2, cooldown=1.0))
    assert not breaker.record_failure(0.0)
    breaker.record_success()                  # streak broken
    assert not breaker.record_failure(0.2)    # back to one
    assert breaker.record_failure(0.3)


# ---------------------------------------------------------------------------
# retrying calls
# ---------------------------------------------------------------------------
def test_retry_succeeds_over_lossy_link():
    kernel = Kernel(seed=3)
    from repro.net import Topology
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    link = topo.add_link("a", "b", FixedLatency(0.01))
    link.loss_rate = 0.6
    net = Network(kernel, topo, default_timeout=0.2)
    net.register_service("b", "echo", EchoService())
    client = ResilientClient(net, policy=RetryPolicy(
        max_attempts=10, base_delay=0.01, max_delay=0.05))

    def bare():
        try:
            return (yield from net.call("a", "b", "echo", "echo", 1, timeout=0.2))
        except TimeoutFailure:
            return "lost"

    def resilient():
        return (yield from client.call("a", "b", "echo", "echo", 2, timeout=0.2))

    # With 60% loss some bare call in a short burst fails...
    results = [kernel.run_process(bare()) for _ in range(10)]
    assert "lost" in results
    # ...while the retrying client delivers.
    assert kernel.run_process(resilient()) == 2
    assert net.kernel.obs.metrics.value("rpc.retries") > 0


def test_retry_does_not_retry_application_failures():
    kernel, net = make_net()
    client = ResilientClient(net, policy=RetryPolicy(max_attempts=5))

    def proc():
        with pytest.raises(UnreachableObjectFailure):
            yield from client.call("a", "b", "echo", "boom")
        return True

    assert kernel.run_process(proc())
    assert net.kernel.obs.metrics.value("rpc.retries") == 0


def test_max_attempts_override_disables_retry():
    kernel, net = make_net()
    net.crash("b")
    client = ResilientClient(net, policy=RetryPolicy(max_attempts=5))

    def proc():
        with pytest.raises(NodeCrashFailure):
            yield from client.call("a", "b", "echo", "echo", 1, max_attempts=1)
        return True

    assert kernel.run_process(proc())
    assert net.kernel.obs.metrics.value("rpc.retries") == 0


# ---------------------------------------------------------------------------
# hedged calls
# ---------------------------------------------------------------------------
def test_hedged_call_wins_with_second_replica():
    kernel, net = make_net()
    client = ResilientClient(net, hedge_delay=0.05)

    class Mixed:
        def read(self):
            yield Sleep(1.0)          # "b" is pathologically slow
            return "slow-answer"

    class Fast:
        def read(self):
            return "fast-answer"

    net.register_service("b", "mixed", Mixed())
    net.register_service("c", "mixed", Fast())

    def proc():
        return (yield from client.hedged_call(
            "a", ["b", "c"], "mixed", "read", timeout=5.0))

    assert kernel.run_process(proc()) == "fast-answer"
    assert client.last_winner == "c"
    assert net.kernel.obs.metrics.value("rpc.hedges") == 1
    assert net.kernel.obs.metrics.value("rpc.hedge_wins") == 1


def test_hedged_call_prefers_primary_when_fast():
    kernel, net = make_net()
    client = ResilientClient(net, hedge_delay=0.5)

    def proc():
        return (yield from client.hedged_call(
            "a", ["b", "c"], "echo", "echo", "v", timeout=5.0))

    assert kernel.run_process(proc()) == "v"
    assert client.last_winner == "b"
    assert net.kernel.obs.metrics.value("rpc.hedges") == 0    # never needed the hedge


def test_hedged_call_single_candidate_degrades_to_plain_call():
    kernel, net = make_net()
    client = ResilientClient(net, hedge_delay=0.05)

    def proc():
        return (yield from client.hedged_call("a", ["b"], "echo", "echo", 7))

    assert kernel.run_process(proc()) == 7
    assert net.kernel.obs.metrics.value("rpc.hedges") == 0


def test_hedged_call_fails_only_when_all_candidates_fail():
    kernel, net = make_net()
    net.crash("b")
    net.crash("c")
    client = ResilientClient(net, hedge_delay=0.05)

    def proc():
        with pytest.raises(NodeCrashFailure):
            yield from client.hedged_call(
                "a", ["b", "c"], "echo", "echo", 1, timeout=0.5)
        return True

    assert kernel.run_process(proc())


# ---------------------------------------------------------------------------
# breaker + transport integration: load shedding
# ---------------------------------------------------------------------------
def test_breaker_sheds_load_to_crashed_node():
    # timeout-only discovery: without a breaker every call to the dead
    # node puts a message on the wire and burns the timeout.
    kernel, net = make_net(fail_fast=False)
    net.crash("b")
    client = ResilientClient(
        net,
        policy=RetryPolicy(max_attempts=1),
        breaker=BreakerPolicy(failure_threshold=3, cooldown=60.0),
    )

    def proc():
        for _ in range(20):
            try:
                yield from client.call("a", "b", "echo", "echo", 1, timeout=0.1)
            except (TimeoutFailure, NodeCrashFailure, CircuitOpenFailure):
                pass
        return True

    assert kernel.run_process(proc())
    registry = kernel.obs.metrics
    # Only the pre-trip attempts ever addressed the dead node; the other
    # 17 calls failed fast without touching the wire.
    attempts = kernel.obs.tracer.spans("rpc.attempt")
    assert [span.attrs["dst"] for span in attempts] == ["b"] * 3
    assert registry.value("net.messages_sent") == 3
    assert registry.value("rpc.breaker_trips") == 1
    assert registry.value("rpc.breaker_fast_fails") == 17
    breaker = client.breaker_for("a", "b")
    assert breaker.state is BreakerState.OPEN


def test_breaker_recovers_after_cooldown():
    kernel, net = make_net(fail_fast=False)
    net.crash("b")
    client = ResilientClient(
        net,
        policy=RetryPolicy(max_attempts=1),
        breaker=BreakerPolicy(failure_threshold=2, cooldown=0.5),
    )

    def proc():
        for _ in range(5):
            try:
                yield from client.call("a", "b", "echo", "echo", 1, timeout=0.1)
            except (TimeoutFailure, NodeCrashFailure, CircuitOpenFailure):
                pass
        net.recover("b")
        yield Sleep(1.0)                      # wait out the cooldown
        return (yield from client.call("a", "b", "echo", "echo", 42, timeout=1.0))

    assert kernel.run_process(proc()) == 42   # half-open probe succeeded
    assert client.breaker_for("a", "b").state is BreakerState.CLOSED


# ---------------------------------------------------------------------------
# replica failover in the element-fetch path
# ---------------------------------------------------------------------------
def failover_world(seed=0):
    kernel, net, world, _ = standard_world(n_servers=4, members=0, seed=seed)
    elements = [
        world.seed_member("coll", f"m{i}", value=f"v{i}",
                          home="s2", replicas=("s3",))
        for i in range(3)
    ]
    return kernel, net, world, elements


def test_fetch_fails_over_to_replica_when_home_crashes():
    kernel, net, world, elements = failover_world()
    net.crash("s2")
    repo = Repository(world, CLIENT, rpc_timeout=1.0)
    result = kernel.run_process(failover_fetch(repo, elements[0]))
    assert result.ok and result.value == "v0"
    assert net.kernel.obs.metrics.value("rpc.failovers") == 1


def test_fetch_without_failover_still_fails():
    kernel, net, world, elements = failover_world()
    net.crash("s2")
    repo = Repository(world, CLIENT, rpc_timeout=1.0)

    def proc():
        with pytest.raises(NodeCrashFailure):
            yield from repo.fetch(elements[0])
        return True

    assert kernel.run_process(proc())


def test_failover_never_resurrects_removed_member():
    kernel, net, world, elements = failover_world()
    repo = Repository(world, CLIENT, rpc_timeout=1.0)
    victim = elements[0]

    def remove_then_fetch():
        yield from repo.remove("coll", victim)
        # Both the home and the replica copy are tombstoned now; with the
        # home up the answer is the authoritative "removed" and failover
        # must not be consulted at all.
        return (yield from failover_fetch(repo, victim))

    assert kernel.run_process(remove_then_fetch()).gone
    assert net.kernel.obs.metrics.value("rpc.failovers") == 0


def test_tombstoned_replica_is_unreachable_not_removed():
    # The replica-path distinction the failover safety argument rests on:
    # a replica without a live copy says "can't help", never "removed".
    kernel, net, world, elements = failover_world()
    repo = Repository(world, CLIENT, rpc_timeout=1.0)
    victim = elements[0]

    def proc():
        yield from repo.remove("coll", victim)
        net.crash("s2")                       # authoritative answer gone
        return (yield from failover_fetch(repo, victim))

    # the replica answers "no live copy", so the sweep settles on the
    # *home's* failure: the caller sees "unreachable", not a false
    # "removed".
    result = kernel.run_process(proc())
    assert result.unreachable and not result.gone
    assert "s2" in result.detail


def test_dynamic_iterator_completes_via_failover():
    kernel, net, world, elements = failover_world()
    net.crash("s2")                           # every member's home is down
    resilience = ResilientClient(net, policy=RetryPolicy(max_attempts=2))
    ws = DynamicSet(world, CLIENT, "coll", rpc_timeout=1.0,
                    resilience=resilience, give_up_after=5.0)
    drained = drain_all(kernel, ws)
    assert isinstance(drained.outcome, Returned)
    assert {y.element.name for y in drained.yields} == {"m0", "m1", "m2"}
    assert net.kernel.obs.metrics.value("rpc.failovers") >= 3


def test_dynamic_iterator_without_failover_blocks():
    kernel, net, world, elements = failover_world()
    net.crash("s2")
    ws = DynamicSet(world, CLIENT, "coll", rpc_timeout=1.0,
                    failover=False, give_up_after=1.0)
    drained = drain_all(kernel, ws)
    assert not isinstance(drained.outcome, Returned)
    assert not drained.yields
