"""Every world the benchmark runs against is built here and only here.

``ScenarioSpec`` is a flat dial list the ROADMAP wants regrouped; when
that lands, this is the one benchmark file that changes (in its own
``benchmark`` PR).  Every dial that differs from the library default is
written out, so a later change to an ``exp_*`` module's dials cannot
move a benchmark number.

What ``--seed`` varies is **where members live**: the placement plan is
generated here, outside the library, from ``random.Random(seed)``, by
shuffling which member lives on which node (the per-node counts are fixed
quotas, so the amount of work is not seed-dependent): every route and
latency moves, calls per op move by <0.5%.  The kernel seed (arrival
gaps, behaviour mix, latency draws) is the constant :data:`KERNEL_SEED`:
at third-of-a-second pass lengths the sampling noise of a few hundred
sessions (+-2% calls per op, +-5% failed share from one kernel seed to
the next) is larger than the bounds the benchmark has to hold.

``drain_audit`` and ``overload_knee`` take no seed at all: both are
chaotic (swapping two members moves the first's events per op by +-4%
and the second's failed share by +-30%), so they run on the one
placement of :data:`FIXED_PLACEMENT_SEED`.
"""

from __future__ import annotations

import random

from repro.net import ExecutorPolicy
from repro.store import AddSpec
from repro.wan import ScenarioSpec, build_scenario

__all__ = ["KERNEL_SEED", "FIXED_PLACEMENT_SEED", "placement",
           "population_world", "storm_world", "wan_drain_world",
           "overload_world"]

KERNEL_SEED = 0
#: the placement of the two workloads ``--seed`` does not apply to
FIXED_PLACEMENT_SEED = 0

#: Zipf skew of members over clusters: most objects near the client's
#: own cluster, a long tail far away (the library default).
PLACEMENT_SKEW = 0.8


def placement(seed: int, n_members: int, *, n_clusters: int,
              cluster_size: int, member_size: int,
              object_replicas: int) -> list[AddSpec]:
    """``n_members`` adds with seeded homes (see the module docstring).

    Stratified: every cluster gets its exact Zipf quota, dealt
    round-robin over the cluster's nodes; the seed shuffles which member
    gets which home.  Each object replica goes to the same node slot of
    the next cluster round the ring, never the home cluster.
    """
    weights = [1.0 / (k + 1) ** PLACEMENT_SKEW for k in range(n_clusters)]
    homes: list[tuple[int, int]] = []
    for cluster, weight in enumerate(weights):
        quota = round(n_members * weight / sum(weights))
        homes += [(cluster, i % cluster_size) for i in range(quota)]
    # Rounding leaves at most a few over or short: trim or top up on the
    # client's own cluster.
    homes = homes[:n_members]
    homes += [(0, i % cluster_size) for i in range(n_members - len(homes))]
    random.Random(seed).shuffle(homes)
    plan = []
    for i, (cluster, slot) in enumerate(homes):
        replicas = tuple(f"n{(cluster + k) % n_clusters}.{slot}"
                         for k in range(1, 1 + object_replicas))
        plan.append(AddSpec(name=f"m{i:04d}", value=f"payload-{i}",
                            home=f"n{cluster}.{slot}", size=member_size,
                            replicas=replicas))
    return plan


def _seeded(spec: ScenarioSpec, plan: list[AddSpec]):
    """Build ``spec``'s (empty) world and seed ``plan`` into it for free."""
    scenario = build_scenario(spec, seed=KERNEL_SEED)
    scenario.elements = [
        scenario.world.seed_member(spec.coll_id, s.name, value=s.value,
                                   home=s.home, size=s.size,
                                   replicas=s.replicas)
        for s in plan]
    return scenario


def population_world(seed: int, n_members: int = 40):
    """The default scenario: 4x4 nodes, 2 KiB members, free links."""
    return _seeded(
        ScenarioSpec(n_clusters=4, cluster_size=4, n_members=0),
        placement(seed, n_members, n_clusters=4, cluster_size=4,
                  member_size=2048, object_replicas=0))


def storm_world(seed: int, n_adds: int):
    """An empty sharded collection plus the adds to storm it with:
    4x3 nodes, 4 shards, one membership replica, one object replica,
    WAL and recovery on."""
    scenario = build_scenario(
        ScenarioSpec(n_clusters=4, cluster_size=3, n_members=0,
                     shards=4, replicas=1, recovery_enabled=True),
        seed=KERNEL_SEED)
    return scenario, placement(seed, n_adds, n_clusters=4, cluster_size=3,
                               member_size=2048, object_replicas=1)


def wan_drain_world(n_members: int):
    """Fat members behind finite-bandwidth FIFO links (the WAN preset)."""
    return _seeded(
        ScenarioSpec(n_clusters=4, cluster_size=4, n_members=0,
                     bandwidth_preset="wan"),
        placement(FIXED_PLACEMENT_SEED, n_members, n_clusters=4,
                  cluster_size=4, member_size=16384, object_replicas=1))


def overload_world(n_members: int = 40):
    """The E23 protected arm's server side: 4 workers x 10 ms behind a
    16-deep priority admission queue with brownout reads."""
    return _seeded(
        ScenarioSpec(n_clusters=4, cluster_size=4, n_members=0,
                     service_time=0.010,
                     executor=ExecutorPolicy(concurrency=4, queue_limit=16,
                                             discipline="priority",
                                             brownout=True)),
        placement(FIXED_PLACEMENT_SEED, n_members, n_clusters=4,
                  cluster_size=4, member_size=2048, object_replicas=0))
