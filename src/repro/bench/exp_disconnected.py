"""E21 — disconnected operation: offline reads, the outbox, reconcile.

The paper's motivating clients are *mobile*: "nodes may crash and
communication links may fail", and the weakest semantics exist exactly
so a disconnected client can keep working against stale state.  E21
makes that a first-class scenario:

* **E21** — availability of each semantics while the client itself is
  DISCONNECTED.  Figure 1's ensures clause has no reachability term on
  yields, so a warm cache drains to completion offline *and still
  conforms to the spec*; the reachability-requiring semantics must
  fail — and fail *fast* (the ``DisconnectedError`` gate), not burn
  their ``give_up_after`` budget discovering what the client already
  knows.
* **E21a** — reconciliation cost as the outbox deepens: delta pull,
  conflict/tombstone classification, pair cancellation, and the
  batched replay drain, in virtual seconds.
* **E21b** — the crash-mid-drain soak: the durable (WAL-modeled)
  outbox must be item-precise across a client crash — no lost queued
  adds, no double-applies — while the volatile ablation measurably
  leaks.
* **E21c** — the geo-replicated end-to-end: a flapping mobile client
  (an :class:`OfflineClient` disconnecting at ``disconnect_rate`` for
  0.8 s stints on average) over clusters suffering correlated whole-DC
  partitions (``FaultPlan.dc_partition_rate``), with remote churn;
  after healing, everything reconciles and the world's invariants
  hold.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import FailureException
from ..net import FaultPlan, FaultSchedule, FixedLatency, Network, full_mesh
from ..sim import Kernel
from ..sim.events import Sleep
from ..spec import Returned
from ..store import ClientCache, OfflineClient, Repository, World
from ..store.offline import CONNECTED, DISCONNECTED, LOST
from ..wan.workload import Mutator, ScenarioSpec, build_scenario
from ..weaksets import DynamicSet, Figure1Set, GrowOnlySet, StrongSet, install_lock_services
from .harness import drain, heal_and_settle
from .metrics import rate
from .report import ExperimentResult

__all__ = ["run_disconnected", "run_reconcile_cost", "run_outbox_crash",
           "geo_flap", "run_geo_flap"]

_IMPLS = (
    ("fig1 immutable", Figure1Set, {}),
    ("fig5 pessimistic", GrowOnlySet, {}),
    ("fig6 optimistic", DynamicSet,
     {"retry_interval": 0.25, "give_up_after": 10.0}),
    ("strong", StrongSet, {"lock_wait_timeout": 2.0}),
)


def _one_drain(cls, kwargs, offline_leg, seed, members=12):
    spec = ScenarioSpec(n_clusters=3, cluster_size=3, n_members=members,
                        policy=cls.expected_policy, rpc_timeout=2.0)
    scenario = build_scenario(spec, seed=seed)
    install_lock_services(scenario.world, spec.coll_id)
    cache = ClientCache(ttl=120.0)
    ws = cls(scenario.world, scenario.client, spec.coll_id,
             cache=cache, **kwargs)
    offline = OfflineClient(scenario.world, scenario.client, spec.coll_id,
                            cache=cache)
    offline.attach(ws.repo)
    if offline_leg:
        # Warm the membership view, then lose the network.
        scenario.kernel.run_process(
            offline.repo.read_membership(spec.coll_id, source="primary"))
        offline.disconnect()
    drained = drain(scenario, ws.elements())
    success = isinstance(drained.outcome, Returned)
    coverage = len(drained.yields) / members
    return success, coverage, drained.total_time, ws


def run_disconnected(seeds: Sequence[int] = range(6)) -> ExperimentResult:
    """E21: availability and conformance while the client is offline."""
    result = ExperimentResult(
        "E21", "Disconnected operation: availability of each semantics "
               "while the client is DISCONNECTED (warm cache)",
        columns=["impl", "state", "success_rate", "mean_coverage",
                 "mean_latency", "fig1_conformant"],
        notes="fig1 permits offline reads — full coverage from the cached "
              "view with zero spec violations; the reachability-requiring "
              "semantics fail, and fail *fast* (DisconnectedError, not a "
              "give_up_after burn: mean_latency ~0 while offline)",
    )
    for impl_name, cls, kwargs in _IMPLS:
        # only fig1 permits offline reads, so only the implementation
        # judged against it is held to its figure here
        audited = cls.semantics == "fig1"
        for offline_leg in (False, True):
            successes, coverages, latencies, conformant = 0, [], [], True
            for seed in seeds:
                success, coverage, latency, ws = _one_drain(
                    cls, kwargs, offline_leg, seed)
                successes += success
                coverages.append(coverage)
                latencies.append(latency)
                if audited:
                    conformant = conformant and ws.audit().conformant
            result.add(
                impl=impl_name,
                state="offline" if offline_leg else "connected",
                success_rate=rate(successes, len(seeds)),
                mean_coverage=sum(coverages) / len(coverages),
                mean_latency=sum(latencies) / len(latencies),
                fig1_conformant=("yes" if conformant else "NO")
                                if audited else "-",
            )
    return result


def run_reconcile_cost(depths=(4, 16, 48), seed: int = 0) -> ExperimentResult:
    """E21a: reconciliation cost as the offline outbox deepens; the run
    at each depth is seeded ``seed + depth``."""
    result = ExperimentResult(
        "E21a", "Reconnect reconciliation vs. outbox depth "
                "(queued adds + removes, remote churn while offline)",
        columns=["queued", "replayed", "conflicts", "dropped", "cancelled",
                 "pulled", "drain_s"],
        notes="each run queues N adds + 4 removes + 1 add/remove pair "
              "offline while a remote node tombstones two victims and "
              "re-adds one name — drops and conflicts classify against the "
              "pulled delta, the pair cancels locally, the rest replays "
              "through one batched write pipeline; drain_s is virtual time",
    )
    for depth in depths:
        spec = ScenarioSpec(n_clusters=3, cluster_size=2, n_members=12,
                            rpc_timeout=2.0)
        scenario = build_scenario(spec, seed=seed + depth)
        kernel = scenario.kernel
        offline = OfflineClient(scenario.world, scenario.client,
                                spec.coll_id, window=4, batch_size=8)
        kernel.run_process(
            offline.repo.read_membership(spec.coll_id, source="primary"))
        offline.disconnect()
        for i in range(depth):
            offline.queue_add(f"off-{i:03d}", value=f"v{i}")
        victims = sorted(scenario.elements, key=lambda e: e.name)[:4]
        for victim in victims:
            offline.queue_remove(victim)
        pair = offline.queue_add("ephemeral", value="tmp")
        offline.queue_remove(pair)
        queued = offline.outbox.depth()
        # Remote churn while we are away: two tombstones (one victim's
        # name re-added under a fresh element — the conflict case).
        remote = Repository(scenario.world, "n1.0")
        kernel.run_process(remote.remove(spec.coll_id, victims[0]))
        kernel.run_process(remote.remove(spec.coll_id, victims[1]))
        kernel.run_process(remote.add(spec.coll_id, victims[1].name,
                                      value="readded"))
        started = kernel.now
        report = kernel.run_process(offline.reconnect())
        result.add(queued=queued, replayed=report.replayed,
                   conflicts=report.conflicts, dropped=report.dropped,
                   cancelled=report.cancelled, pulled=report.pulled,
                   drain_s=kernel.now - started)
        assert scenario.world.check_invariants() == []
    return result


def _crash_run(seed: int, durable: bool):
    """One mid-drain client crash; mirrors tests/test_disconnected_soak.py."""
    nodes = ["client"] + [f"s{i}" for i in range(4)]
    kernel = Kernel(seed=seed)
    net = Network(kernel, full_mesh(nodes, FixedLatency(0.01)))
    world = World(net)
    world.create_collection("coll", primary="s0", policy="any")
    elements = [world.seed_member("coll", f"m{i:03d}", value=f"v{i}",
                                  home=f"s{i % 4}") for i in range(8)]
    offline = OfflineClient(world, "client", "coll",
                            durable_outbox=durable, window=1, batch_size=1)
    kernel.run_process(offline.repo.read_membership("coll", source="primary"))
    stream = kernel.stream("soak")
    offline.disconnect()
    added = [offline.queue_add(f"off-{seed}-{i:02d}", value=f"v{i}")
             for i in range(stream.randint(3, 6))]
    for victim in elements[:2]:
        offline.queue_remove(victim)
    offline.start_reconcile()
    schedule = FaultSchedule()
    schedule.crash_at(stream.uniform(0.05, 0.10), "client")
    schedule.recover_at(0.5, "client")
    kernel.spawn(schedule.run(net), name="crash-schedule", daemon=True)
    kernel.run(until=kernel.now + 2.0)
    if offline.outbox.depth() > 0:
        kernel.run_process(offline.reconcile())
    names = [e.name for e in world.true_members("coll")]
    lost = sum(1 for e in offline.outbox.entries if e.status == LOST)
    leaked = sum(1 for e in added if e.name not in names)
    doubled = sum(1 for e in added if names.count(e.name) > 1)
    return lost, leaked, doubled, len(world.check_invariants())


def run_outbox_crash(seeds: Sequence[int] = range(24)) -> ExperimentResult:
    """E21b: client crash mid-drain — durable outbox vs. the ablation."""
    result = ExperimentResult(
        "E21b", f"Crash mid-reconcile over {len(seeds)} seeded schedules: "
                "durable (WAL-modeled) outbox vs. volatile ablation",
        columns=["outbox", "crashes", "lost", "leaked_adds",
                 "double_applied", "violations"],
        notes="every schedule crashes the client while the replay drain is "
              "in flight; durable must be item-precise (zero lost / leaked "
              "/ double-applied, zero invariant violations) while the "
              "volatile ablation leaks its queued tail on every seed",
    )
    for durable in (True, False):
        lost = leaked = doubled = violations = 0
        for seed in seeds:
            run_lost, run_leaked, run_doubled, run_violations = \
                _crash_run(seed, durable)
            lost += run_lost
            leaked += run_leaked
            doubled += run_doubled
            violations += run_violations
        result.add(outbox="durable" if durable else "volatile",
                   crashes=len(seeds), lost=lost, leaked_adds=leaked,
                   double_applied=doubled, violations=violations)
    return result


def _offline_writer(scenario, offline):
    """The mobile client keeps working while offline: queue mutations
    into the outbox whenever a DISCONNECTED stint is in progress."""
    stream = scenario.kernel.stream("offline-writer")
    i = 0
    while True:
        yield Sleep(stream.exponential(0.25))
        if offline.state != DISCONNECTED:
            continue
        if stream.bernoulli(0.7):
            offline.queue_add(f"mob-{i:03d}", value=f"mobile-{i}")
            i += 1
        else:
            current = sorted(offline.read_members(), key=lambda e: e.name)
            if current:
                offline.queue_remove(stream.choice(current))


def _flapper(kernel, offline, disconnect_rate, mean_stint, flaps):
    """The mobile client's disconnect/reconnect schedule.

    Exponential inter-arrivals at ``disconnect_rate``; each stint is an
    explicit DISCONNECTED session (stale reads, outbox) lasting an
    exponential draw with mean ``mean_stint``, ended by a reconnect that
    reconciles.  Each finished stint appends its end time to ``flaps``.
    """
    stream = kernel.stream("workload.flapper")
    while True:
        yield Sleep(stream.exponential(1.0 / disconnect_rate))
        duration = stream.exponential(mean_stint)
        if offline.state != CONNECTED:
            continue                 # already offline or reconciling
        offline.disconnect()
        yield Sleep(duration)
        try:
            yield from offline.reconnect()
        except FailureException:
            # Reconcile hit an unreachable primary: entries stay
            # queued; the next reconnect retries them.
            pass
        flaps.append(kernel.now)


def geo_flap(seed: int, disconnect_rate: float, dc_rate: float,
             run_for: float = 30.0):
    """One E21c leg: the flapping client, DC partitions and remote churn
    for ``run_for`` simulated seconds, then heal and reconnect.  Returns
    ``(scenario, offline, flaps)``."""
    # Correlated whole-cluster partitions: one group per cluster.
    clusters = tuple(tuple(f"n{c}.{i}" for i in range(2)) for c in range(3))
    spec = ScenarioSpec(n_clusters=3, cluster_size=2, n_members=12,
                        fault_plan=FaultPlan(dc_partition_rate=dc_rate,
                                             dc_groups=clusters),
                        rpc_timeout=1.0)
    scenario = build_scenario(spec, seed=seed)
    kernel = scenario.kernel
    offline = OfflineClient(scenario.world, scenario.client, spec.coll_id)
    flaps: list[float] = []
    kernel.spawn(_flapper(kernel, offline, disconnect_rate, 0.8, flaps),
                 name="client-flapper", daemon=True)
    kernel.run_process(
        offline.repo.read_membership(spec.coll_id, source="primary"))
    mutator = Mutator(scenario, add_rate=0.2, remove_rate=0.2)
    mutator.start()
    kernel.spawn(_offline_writer(scenario, offline),
                 name="offline-writer", daemon=True)
    kernel.run(until=run_for)
    # no settling time: the reconnect below is what settles this world
    heal_and_settle(scenario, bound=0.0, step=0.0)
    scenario.net.heal()
    if offline.state != CONNECTED:
        kernel.run_process(offline.reconnect())
    elif offline.outbox.depth() > 0:
        kernel.run_process(offline.reconcile())
    return scenario, offline, flaps


def run_geo_flap(run_for: float = 30.0, seed: int = 7) -> ExperimentResult:
    """E21c: flapping mobile client over partitioning geo clusters."""
    result = ExperimentResult(
        "E21c", "Geo-replicated end-to-end: flapping client "
                "(disconnect_rate) + correlated whole-DC partitions "
                "(dc_partition_rate) + remote churn",
        columns=["disconnect_rate", "dc_rate", "flaps", "dc_partitions",
                 "sessions", "replayed", "conflicts_dropped", "violations"],
        notes="the client flapper drives explicit DISCONNECTED sessions "
              "(outbox + reconcile-on-reconnect) while whole clusters "
              "partition off together; after healing, the outbox drains "
              "and the world settles with zero invariant violations",
    )
    for disconnect_rate, dc_rate in ((0.5, 0.0), (0.5, 0.1)):
        scenario, offline, flaps = geo_flap(seed, disconnect_rate, dc_rate,
                                            run_for)
        metrics = scenario.kernel.obs.metrics
        injected = scenario.injector.injected if scenario.injector else []
        result.add(
            disconnect_rate=disconnect_rate,
            dc_rate=dc_rate,
            flaps=len(flaps),
            dc_partitions=sum(1 for (_, kind, _) in injected
                              if kind == "dc-partition"),
            sessions=int(metrics.value("offline.sessions")),
            replayed=int(metrics.value("reconcile.replayed")),
            conflicts_dropped=int(metrics.value("reconcile.conflicts")
                                  + metrics.value("reconcile.dropped")),
            violations=len(scenario.world.check_invariants()),
        )
    return result
