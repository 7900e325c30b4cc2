#!/usr/bin/env python3
"""The mobile-client story (§1.1): "disconnecting a mobile client from
the network while traveling is an induced failure, yet consistency of
data may be sacrificed to gain high performance and high availability."

A laptop browses a document set, gets on a plane (isolated) mid-query,
and lands later.  Three designs react three ways:

* the strong reader is worse than useless: the read lock it still holds
  blocks every writer in the system until it lands;
* the pessimistic (Figure 5) reader fails the moment it cannot re-read
  the membership;
* the optimistic (Figure 6) reader keeps the partial answer, blocks
  quietly, and finishes the query the moment connectivity returns.

Run:  python examples/mobile_client.py
"""

from repro.net import FixedLatency, Network, full_mesh
from repro.sim import Kernel, Sleep
from repro.store import World
from repro.weaksets import (
    DynamicSet,
    GrowOnlySet,
    StrongSet,
    install_lock_services,
)

LAPTOP = "laptop"
FLIGHT_TAKEOFF = 0.2
FLIGHT_LANDING = 6.0


def build_world(seed=0, policy="any"):
    kernel = Kernel(seed=seed)
    nodes = [LAPTOP, "office", "archive1", "archive2"]
    net = Network(kernel, full_mesh(nodes, FixedLatency(0.02)))
    world = World(net)
    world.create_collection("papers", primary="office", policy=policy)
    for i in range(8):
        world.seed_member("papers", f"paper-{i}", value=f"pdf bytes {i}",
                          home=["office", "archive1", "archive2"][i % 3])
    install_lock_services(world, "papers")
    return kernel, net, world


def flight(kernel, net, takeoff=FLIGHT_TAKEOFF):
    yield Sleep(takeoff)
    net.isolate(LAPTOP)
    print(f"  [{kernel.now:5.2f}s] ✈ laptop disconnected (takeoff)")
    yield Sleep(FLIGHT_LANDING - takeoff)
    net.rejoin(LAPTOP)
    print(f"  [{kernel.now:5.2f}s] ✓ laptop reconnected (landing)")


def main() -> None:
    # --- optimistic (Figure 6): the design CMU shipped -------------------
    print("--- dynamic set (Figure 6, optimistic) ---")
    kernel, net, world = build_world()
    ws = DynamicSet(world, LAPTOP, "papers", retry_interval=0.5)
    iterator = ws.elements()

    def browse():
        count = 0
        while True:
            outcome = yield from iterator.invoke()
            if not outcome.suspends:
                return count, outcome
            count += 1
            print(f"  [{kernel.now:5.2f}s] got {outcome.element.name}")

    kernel.spawn(flight(kernel, net), daemon=True)
    count, outcome = kernel.run_process(browse())
    print(f"  finished with all {count} papers ({outcome}); "
          f"the query simply waited out the flight\n")

    # --- pessimistic (Figure 5) -----------------------------------------
    print("--- grow-only set (Figure 5, pessimistic) ---")
    kernel, net, world = build_world(policy="grow-only")
    ws5 = GrowOnlySet(world, LAPTOP, "papers")
    it5 = ws5.elements()

    def browse5():
        count = 0
        while True:
            outcome = yield from it5.invoke()
            if not outcome.suspends:
                return count, outcome
            count += 1

    kernel.spawn(flight(kernel, net), daemon=True)
    count, outcome = kernel.run_process(browse5())
    print(f"  [{kernel.now:5.2f}s] {count} papers, then: {outcome}\n")

    # --- strong: the lock comes along on the plane ------------------------
    print("--- strong set (read lock held through the flight) ---")
    kernel, net, world = build_world()
    reader = StrongSet(world, LAPTOP, "papers")
    writer = StrongSet(world, "archive1", "papers")
    it_strong = reader.elements()

    def strong_reader():
        yield from it_strong.invoke()          # lock + full prefetch
        print(f"  [{kernel.now:5.2f}s] laptop holds the read lock")
        yield Sleep(100.0)                     # reading on the plane...

    def blocked_writer():
        yield Sleep(1.0)
        print(f"  [{kernel.now:5.2f}s] office tries to publish a new paper")
        yield from writer.add("paper-new", value="fresh pdf")
        print(f"  [{kernel.now:5.2f}s] publish finally committed")

    # takeoff after the prefetch completes, so the lock is legitimately held
    kernel.spawn(flight(kernel, net, takeoff=0.8), daemon=True)
    kernel.spawn(strong_reader(), daemon=True)
    kernel.spawn(blocked_writer(), daemon=True)
    kernel.run(until=20.0)
    print(f"  [at t=20s] writer committed? "
          f"{'no — still blocked by the airborne laptop' if kernel.now >= 20 else 'yes'}")


if __name__ == "__main__":
    main()
