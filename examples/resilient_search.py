#!/usr/bin/env python3
"""A search that survives its servers: the resilient RPC layer at work.

The paper assumes "failures are assumed to be common" and leaves
recovery to the client.  `repro.net.resilience` is that client-side
recovery, made explicit: retries with backoff, per-operation deadlines,
circuit breakers, and — because data objects can carry replica copies —
failover of element fetches away from a crashed home.

One library, two clients, one crash:

1. a bare client loses the shelf holding half the articles and gives up
   with a partial answer;
2. a resilient client survives the same crash by fetching the lost
   articles from their replica copies — without ever yielding anything
   the weak-set spec would reject (replicas are never believed about
   *removal*; only an element's home can say "gone");
3. the circuit breaker then sheds the pointless traffic a dead shelf
   would otherwise attract.

Run:  python examples/resilient_search.py
"""

from repro.errors import CircuitOpenFailure, FailureException
from repro.net import (
    BreakerPolicy,
    FixedLatency,
    Network,
    ResilientClient,
    RetryPolicy,
    full_mesh,
)
from repro.sim import Kernel
from repro.store import ObjectServer, World
from repro.weaksets import DynamicSet

LAPTOP = "laptop"
ARTICLES = 6


def build_world(seed=11):
    kernel = Kernel(seed=seed)
    nodes = [LAPTOP, "hub", "shelf1", "shelf2"]
    net = Network(kernel, full_mesh(nodes, FixedLatency(0.02)))
    world = World(net)
    world.create_collection("articles", primary="hub", policy="any")
    for i in range(ARTICLES):
        home = ["shelf1", "shelf2"][i % 2]
        mirror = ["shelf2", "shelf1"][i % 2]
        world.seed_member("articles", f"article-{i}", value=f"text {i}",
                          home=home, replicas=(mirror,))
    return kernel, net, world


def drain(kernel, ws):
    iterator = ws.elements()

    def proc():
        return (yield from iterator.drain())

    return kernel.run_process(proc())


def main() -> None:
    # --- 1. the bare client: a crash costs half the answer ---------------
    print("--- bare client (no retries, no failover) ---")
    kernel, net, world = build_world()
    net.crash("shelf1")
    print("  shelf1 is down; articles 0/2/4 live there (mirrored on shelf2)")
    ws = DynamicSet(world, LAPTOP, "articles", rpc_timeout=0.5,
                    retry_interval=0.25, give_up_after=1.5, failover=False)
    result = drain(kernel, ws)
    got = sorted(y.element.name for y in result.yields)
    print(f"  [{kernel.now:5.2f}s] yielded {len(got)}/{ARTICLES}: {got}")
    print(f"  outcome: {result.outcome}\n")

    # --- 2. the resilient client: same crash, full answer ----------------
    print("--- resilient client (retries + breaker + replica failover) ---")
    kernel, net, world = build_world()
    net.crash("shelf1")
    resilience = ResilientClient(
        net,
        policy=RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=0.4),
        breaker=BreakerPolicy(failure_threshold=3, cooldown=5.0),
        hedge_delay=0.1,
    )
    ws = DynamicSet(world, LAPTOP, "articles", resilience=resilience,
                    rpc_timeout=0.5, retry_interval=0.25, give_up_after=1.5)
    result = drain(kernel, ws)
    got = sorted(y.element.name for y in result.yields)
    print(f"  [{kernel.now:5.2f}s] yielded {len(got)}/{ARTICLES}: {got}")
    print(f"  outcome: {result.outcome}")
    counter = kernel.obs.metrics.value
    print(f"  recovery effort: retries={counter('rpc.retries')} "
          f"failovers={counter('rpc.failovers')} hedges={counter('rpc.hedges')} "
          f"(wins: {counter('rpc.hedge_wins')})")
    print("  every lost article was served by its shelf2 mirror — here the "
          "hedged\n  replica read won the race outright; a mirror is never "
          "believed about\n  removal, so nothing stale can sneak in\n")

    # --- 3. the breaker sheds traffic to the dead shelf -------------------
    print("--- the circuit breaker, shedding load ---")

    def storm():
        shed = served = 0
        for i in range(10):
            try:
                yield from resilience.call(
                    LAPTOP, "shelf1", ObjectServer.SERVICE, "has_object",
                    f"probe-{i}", timeout=0.5, max_attempts=1)
                served += 1
            except CircuitOpenFailure:
                shed += 1
            except FailureException:
                pass
        return shed

    # A fast-fail raises before Network.call, so every attempt the
    # network counts is a probe that reached the wire.
    before = counter("rpc.attempts")
    shed = kernel.run_process(storm())
    sent = counter("rpc.attempts") - before
    print(f"  10 probes at the dead shelf: {sent} reached the wire, "
          f"{shed} failed fast\n  (the breaker already tripped during the "
          f"search — trips={counter('rpc.breaker_trips')}, fast-fails so far: "
          f"{counter('rpc.breaker_fast_fails')})")


if __name__ == "__main__":
    main()
