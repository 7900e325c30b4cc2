"""Client-side overload protection: retry budgets, retry_after,
AIMD adaptive concurrency, busy-aware failure detection, brownout."""

import pytest

from repro.errors import ServerBusyFailure
from repro.net import (AIMDPolicy, AdaptiveLimiter, BoundedExecutor,
                       ExecutorPolicy, FailureDetector,
                       FixedLatency, Network, PingService, ResilientClient,
                       RetryBudget, RetryBudgetPolicy, RetryPolicy,
                       full_mesh)
from repro.sim import Kernel, Sleep
from repro.store import Repository, World


# ---------------------------------------------------------------------------
# RetryBudget (token bucket)
# ---------------------------------------------------------------------------
def test_retry_budget_token_accounting():
    budget = RetryBudget(RetryBudgetPolicy(ratio=0.5, burst=2.0))
    assert budget.tokens == 2.0
    assert budget.withdraw() and budget.withdraw()
    assert not budget.withdraw()               # empty
    for _ in range(10):
        budget.deposit()
    assert budget.tokens == 2.0                # capped at burst
    assert budget.withdraw()
    budget.deposit()
    assert budget.tokens == pytest.approx(1.5)


def test_retry_budget_bounds_retry_fraction():
    # ratio=0.1: ten first attempts earn one retry.
    budget = RetryBudget(RetryBudgetPolicy(ratio=0.1, burst=1.0))
    assert budget.withdraw()                   # burn the initial burst
    assert not budget.withdraw()
    for _ in range(10):
        budget.deposit()
    assert budget.withdraw()
    assert not budget.withdraw()


# ---------------------------------------------------------------------------
# AdaptiveLimiter (AIMD)
# ---------------------------------------------------------------------------
def test_aimd_additive_increase_and_multiplicative_decrease():
    limiter = AdaptiveLimiter(AIMDPolicy(max_window=16))
    assert limiter.window == 8                 # the fixed starting window
    for _ in range(100):
        limiter.on_success()
    assert limiter.window == 16                # capped
    limiter.on_overload(200.0)
    assert limiter.window == 8                 # halved
    for t in range(4):
        limiter.on_overload(300.0 + t)
    assert limiter.window == 1                 # floored at one


def test_aimd_cooldown_rate_limits_decreases():
    limiter = AdaptiveLimiter(AIMDPolicy())
    limiter.on_overload(10.0)
    assert limiter.window == 4
    limiter.on_overload(10.04)                 # inside the 50 ms cooldown
    assert limiter.window == 4
    limiter.on_overload(10.05)
    assert limiter.window == 2


def test_aimd_publishes_window_gauge():
    kernel = Kernel()
    limiter = AdaptiveLimiter(AIMDPolicy(), metrics=kernel.obs.metrics)
    assert kernel.obs.metrics.value("overload.limiter_window") == 8
    limiter.on_overload(1.0)
    assert kernel.obs.metrics.value("overload.limiter_window") == 4


# ---------------------------------------------------------------------------
# ResilientClient: retry_after + retry budget
# ---------------------------------------------------------------------------
class SlowService:
    def work(self, delay):
        yield Sleep(delay)
        return "done"


def make_busy_net(service_estimate=0.2):
    """``b`` with one worker and no queue, whose shed hint starts at
    ``service_estimate`` (the executor's service-time EWMA)."""
    kernel = Kernel(seed=19)
    net = Network(kernel, full_mesh(["a", "b"], FixedLatency(0.001)))
    net.register_service("b", "svc", SlowService())
    executor = BoundedExecutor(
        kernel, ExecutorPolicy(concurrency=1, queue_limit=0), name="b")
    executor.ewma_service_time = service_estimate
    net.node("b").executor = executor
    return kernel, net


def test_retry_honors_server_retry_after_hint():
    kernel, net = make_busy_net(service_estimate=0.2)
    client = ResilientClient(
        net, policy=RetryPolicy(max_attempts=10, base_delay=0.001,
                                max_delay=0.002))

    def blocker():
        yield from net.call("a", "b", "svc", "work", 0.3, timeout=5.0)

    def caller():
        yield Sleep(0.01)           # let the blocker occupy the worker
        result = yield from client.call("a", "b", "svc", "work", 0.01,
                                        timeout=5.0)
        return (result, kernel.now)

    kernel.spawn(blocker(), name="blocker")
    result, finished_at = kernel.run_process(caller())
    assert result == "done"
    # Without the hint, 10 attempts at ~1ms backoff would have burned
    # out within ~20ms; honoring retry_after=0.2 spaced them past the
    # blocker's 0.3s occupancy.
    assert finished_at > 0.3
    assert net.kernel.obs.metrics.value("rpc.retries") > 0


def test_retry_budget_exhaustion_stops_the_storm():
    kernel, net = make_busy_net()
    client = ResilientClient(
        net, policy=RetryPolicy(max_attempts=10, base_delay=0.001,
                                max_delay=0.002),
        retry_budget=RetryBudgetPolicy(ratio=0.1, burst=1.0))

    def blocker():
        yield from net.call("a", "b", "svc", "work", 5.0, timeout=10.0)

    def caller():
        yield Sleep(0.01)
        with pytest.raises(ServerBusyFailure):
            yield from client.call("a", "b", "svc", "work", 0.01,
                                   timeout=5.0)

    kernel.spawn(blocker(), name="blocker")
    kernel.run_process(caller())
    # One burst token bought one retry; the second retry was refused.
    assert net.kernel.obs.metrics.value("rpc.retries") == 1
    assert net.kernel.obs.metrics.value("overload.retry_budget_exhausted") == 1
    assert kernel.obs.metrics.value("overload.retry_budget_exhausted") == 1


def test_shed_is_breaker_neutral():
    """A shed reply proves the server is alive: breakers must not trip
    on ServerBusyFailure (that would turn overload into failover)."""
    from repro.net import BreakerPolicy
    kernel, net = make_busy_net()
    client = ResilientClient(
        net, policy=RetryPolicy(max_attempts=1),
        breaker=BreakerPolicy(failure_threshold=2, cooldown=10.0))

    def blocker():
        yield from net.call("a", "b", "svc", "work", 5.0, timeout=10.0)

    def caller():
        yield Sleep(0.01)
        for _ in range(10):
            with pytest.raises(ServerBusyFailure):
                yield from client.call("a", "b", "svc", "work", 0.01,
                                       timeout=5.0)
        return True

    kernel.spawn(blocker(), name="blocker")
    assert kernel.run_process(caller())
    breaker = client.breaker_for("a", "b")
    assert breaker.allow(kernel.now)           # still closed
    assert net.kernel.obs.metrics.value("rpc.breaker_trips") == 0


# ---------------------------------------------------------------------------
# FailureDetector: busy servers are alive
# ---------------------------------------------------------------------------
def test_failure_detector_not_fooled_by_overload():
    kernel = Kernel(seed=23)
    net = Network(kernel, full_mesh(["home", "busy"], FixedLatency(0.001)))
    net.register_service("busy", FailureDetector.SERVICE, PingService())
    net.register_service("busy", "svc", SlowService())
    net.node("busy").executor = BoundedExecutor(
        kernel, ExecutorPolicy(concurrency=1, queue_limit=0), name="busy")
    fd = FailureDetector(net, "home", ["busy"], period=0.1,
                         suspect_after=0.3, rpc_timeout=0.05)
    fd.start()

    def blocker():
        # Saturate the server for 2 virtual seconds solid.
        yield from net.call("home", "busy", "svc", "work", 2.0, timeout=5.0)

    kernel.spawn(blocker(), name="blocker")
    kernel.run(until=1.5)
    # Every ping was shed — yet the node was never declared dead, and
    # the ping timeout backed off instead.
    assert not fd.is_suspected("busy")
    assert fd._timeout_scale["busy"] > 1.0
    # A real crash is still detected, at any timeout scale.
    net.crash("busy")
    kernel.run(until=kernel.now + 3.0)
    assert fd.is_suspected("busy")


def test_failure_detector_scale_resets_on_pong():
    kernel = Kernel(seed=29)
    net = Network(kernel, full_mesh(["home", "n"], FixedLatency(0.001)))
    net.register_service("n", FailureDetector.SERVICE, PingService())
    fd = FailureDetector(net, "home", ["n"], period=0.1)
    fd._timeout_scale["n"] = 8.0               # as if overload just ended
    fd.start()
    kernel.run(until=0.5)
    assert fd._timeout_scale["n"] == 1.0
    assert not fd.is_suspected("n")


# ---------------------------------------------------------------------------
# brownout end-to-end: degraded membership reads through the Repository
# ---------------------------------------------------------------------------
def test_brownout_membership_read_is_tagged_stale():
    kernel = Kernel(seed=31)
    net = Network(kernel, full_mesh(["client", "p"], FixedLatency(0.001)))
    world = World(net, service_time=0.05,
                  # brownout from one queued request (half the limit)
                  executor=ExecutorPolicy(concurrency=1, queue_limit=2,
                                          brownout=True))
    world.create_collection("c", primary="p")
    seeded = world.seed_member("c", "m1", value="v1")
    repo = Repository(world, "client")
    views = []

    def reader():
        view = yield from repo.read_membership("c", source="primary")
        views.append(view)

    def driver():
        for _ in range(4):
            kernel.spawn(reader(), name="r")
            yield Sleep(0.0001)

    kernel.spawn(driver(), name="driver")
    kernel.run(until=5.0)
    assert len(views) == 4
    fresh = [v for v in views if not v.stale]
    degraded = [v for v in views if v.stale]
    assert fresh and degraded
    # Brownout serves the *committed* snapshot: same members, legal
    # weak-set staleness, availability preserved.
    for view in degraded:
        assert view.members == frozenset({seeded})
    assert kernel.obs.metrics.value("overload.brownout_served") == len(degraded)


# ---------------------------------------------------------------------------
# AIMD limiter gates the pipelines
# ---------------------------------------------------------------------------
def test_limiter_caps_fetch_pipeline_window():
    from repro.store.fetchplan import FetchPipeline
    kernel = Kernel(seed=37)
    net = Network(kernel, full_mesh(["client", "p"], FixedLatency(0.001)))
    world = World(net, service_time=0.01)
    world.create_collection("c", primary="p")
    elements = [world.seed_member("c", f"m{i}", value=i) for i in range(12)]
    limiter = AdaptiveLimiter(AIMDPolicy(max_window=1))
    repo = Repository(world, "client", limiter=limiter)
    pipeline = FetchPipeline(repo, use_cache=False, window=8, batch_size=1)
    max_in_flight = [0]

    original = pipeline._form_batch

    def tracking_form_batch():
        batch = original()
        max_in_flight[0] = max(max_in_flight[0], pipeline._in_flight)
        return batch

    pipeline._form_batch = tracking_form_batch

    def run():
        pipeline.start()
        pipeline.submit(elements)
        results = []
        while True:
            result = yield from pipeline.next_result()
            if result is None:
                break
            results.append(result)
        pipeline.stop()
        return results

    results = kernel.run_process(run())
    assert len(results) == 12 and all(r.ok for r in results)
    # Static window is 8, but the AIMD window (frozen at 1) governed.
    assert max_in_flight[0] == 1


def test_limiter_gates_write_pipeline_concurrency():
    kernel = Kernel(seed=41)
    net = Network(kernel, full_mesh(["client", "p"], FixedLatency(0.001)))
    world = World(net, service_time=0.01)
    world.create_collection("c", primary="p")
    limiter = AdaptiveLimiter(AIMDPolicy(max_window=1))
    repo = Repository(world, "client", limiter=limiter)

    def run():
        return (yield from repo.add_many(
            "c", [f"w{i}" for i in range(6)], window=4, batch_size=1))

    added = kernel.run_process(run())
    assert len(added) == 6
    assert world.true_members("c") == frozenset(added)
