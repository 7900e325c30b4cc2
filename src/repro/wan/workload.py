"""Generic wide-area workload construction.

The paper's argument rests on three workload properties: objects are
*scattered* over many organizations, some far away; membership
*mutates rarely* ("Elements in the set change infrequently"); and
*failures are common*.  :func:`build_scenario` builds worlds with those
properties as dials, and :class:`Mutator` / the fault plans turn the
other two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Generator, Optional

from ..net.address import NodeId
from ..net.fabric import Network
from ..net.executor import ExecutorPolicy
from ..net.failures import FaultInjector, FaultPlan
from ..net.link import FixedLatency, ParetoLatency
from ..net.topology import wan_clusters
from ..net.wire import BANDWIDTH_PRESETS, WireFormat, codec_by_name
from ..sim.events import Sleep
from ..sim.kernel import Kernel
from ..store.repository import Repository
from ..store.world import World
from ..store.writeplan import AddSpec

__all__ = ["ScenarioSpec", "Scenario", "Mutator", "build_scenario",
           "member_plan"]


@dataclass(frozen=True)
class ScenarioSpec:
    """Dials for a wide-area scenario."""

    n_clusters: int = 4
    cluster_size: int = 4
    n_members: int = 40
    member_size: int = 2048                 # bytes per object
    placement_skew: float = 0.8             # Zipf skew over clusters
    policy: str = "any"
    replicas: int = 0                       # membership replicas (the node
                                            # slots after the registry's)
    object_replicas: int = 0                # per-object copies on other
                                            # clusters (failover targets)
    intra_latency: float = 0.002
    inter_latency: float = 0.080
    heavy_tail: bool = False                # Pareto inter-cluster latency
    service_time: float = 0.002
    replica_lag: float = 0.5
    fault_plan: Optional[FaultPlan] = None
    coll_id: str = "collection"
    fail_fast: bool = True                  # transport-layer failure signals
    rpc_timeout: float = 5.0                # the timeout backstop
    recovery_enabled: bool = True           # WAL + replay + scrub (E18 ablation)
    scrub_interval: float = 2.0             # repair daemon period
    # -- overload protection (E23) -------------------------------------
    executor: Optional[ExecutorPolicy] = None   # server admission control
                                                # (None = unbounded seed
                                                # concurrency)
    # -- the wire (E25) --------------------------------------------------
    codec: str = "compact"                  # wire codec: "compact" | "naive"
    bandwidth_preset: Optional[str] = None  # "lan" | "wan" | "mobile":
                                            # every link's bandwidth and
                                            # the sender's serialize rate
                                            # (None = infinite and free)
    # -- sharded membership (E24) --------------------------------------
    shards: int = 0                         # 0 = classic single-primary
                                            # registry; N>0 partitions the
                                            # member registry over the
                                            # first N node slots

    def __post_init__(self) -> None:
        registry = max(self.shards, 1)
        nodes = self.n_clusters * self.cluster_size
        if registry + self.replicas > nodes:
            raise ValueError(
                f"{registry} registry node(s) and {self.replicas} replica(s) "
                f"need {registry + self.replicas} nodes; {self.n_clusters} "
                f"clusters of {self.cluster_size} have {nodes}")

    @property
    def client(self) -> NodeId:
        return "client"

    def bandwidths(self) -> tuple[float, float, float, float]:
        """(intra, inter, access, serialize_rate) in bytes/s: the
        preset's, or all 0 (infinite, free) without one."""
        if self.bandwidth_preset is None:
            return 0.0, 0.0, 0.0, 0.0
        preset = BANDWIDTH_PRESETS[self.bandwidth_preset]
        return preset.intra, preset.inter, preset.access, preset.serialize_rate

    def _slots(self) -> tuple[NodeId, ...]:
        """Every server, slot-major: n0.0, n1.0, … then n0.1, n1.1, …, so
        a collection's nodes spread across clusters before any cluster
        holds two.  The registry takes the first ``max(shards, 1)``
        slots, the replicas the next ``replicas``."""
        return tuple(f"n{c}.{i}" for i in range(self.cluster_size)
                     for c in range(self.n_clusters))

    @property
    def primary(self) -> NodeId:
        """The first slot: the single home, or the first shard."""
        return self._slots()[0]

    @property
    def shard_nodes(self) -> tuple[NodeId, ...]:
        """The registry's shards; none for a single home."""
        return self._slots()[:self.shards]

    @property
    def replica_nodes(self) -> tuple[NodeId, ...]:
        """Membership replicas; disjoint from the registry's slots."""
        registry = max(self.shards, 1)
        return self._slots()[registry:registry + self.replicas]


@dataclass
class Scenario:
    """A built world, ready to run experiments against."""

    spec: ScenarioSpec
    kernel: Kernel
    net: Network
    world: World
    elements: list = field(default_factory=list)
    injector: Optional[FaultInjector] = None

    @property
    def coll_id(self) -> str:
        return self.spec.coll_id

    @property
    def client(self) -> NodeId:
        return self.spec.client

    def repo(self, client: Optional[NodeId] = None) -> Repository:
        return Repository(self.world, client or self.client)


def build_scenario(spec: ScenarioSpec, seed: int = 0) -> Scenario:
    """Deterministically build the world a spec describes.

    The client joins the first cluster (its "organization"); members are
    placed over clusters with Zipf skew — most objects nearby, a long
    tail far away — which is what makes closest-first matter.
    """
    kernel = Kernel(seed=seed)
    inter = (ParetoLatency(spec.inter_latency) if spec.heavy_tail
             else FixedLatency(spec.inter_latency))
    intra_bw, inter_bw, access_bw, serialize_rate = spec.bandwidths()
    topo = wan_clusters(
        [spec.cluster_size] * spec.n_clusters,
        intra_latency=FixedLatency(spec.intra_latency),
        inter_latency=inter,
        intra_bandwidth=intra_bw,
        inter_bandwidth=inter_bw,
    )
    topo.add_node(spec.client)
    topo.add_link(spec.client, "n0.0", FixedLatency(spec.intra_latency),
                  bandwidth=access_bw)
    wire = WireFormat(codec=codec_by_name(spec.codec),
                      serialize_rate=serialize_rate)
    net = Network(kernel, topo, fail_fast=spec.fail_fast,
                  default_timeout=spec.rpc_timeout, wire=wire)
    world = World(net, service_time=spec.service_time,
                  replica_lag=spec.replica_lag,
                  recovery_enabled=spec.recovery_enabled,
                  scrub_interval=spec.scrub_interval,
                  executor=spec.executor)
    world.create_collection(spec.coll_id, primary=spec.primary,
                            replicas=spec.replica_nodes, policy=spec.policy,
                            shards=spec.shard_nodes)
    # God-mode seeding: instant and free, so experiments that measure
    # *other* phases keep their calibrated timings (a benchmark of the
    # write path populates through ``add_many`` itself — see E20).
    elements = [world.seed_member(
        spec.coll_id, s.name, value=s.value,
        home=s.home, size=s.size, replicas=s.replicas,
    ) for s in member_plan(spec, kernel)]
    if spec.policy == "immutable":
        world.seal(spec.coll_id)
    scenario = Scenario(spec=spec, kernel=kernel, net=net, world=world,
                        elements=elements)
    plan = spec.fault_plan
    if plan is not None and plan.total_rate(
            len(net.nodes), len(net.topology.links())) > 0:
        scenario.injector = FaultInjector(net, plan)
        scenario.injector.start()
    return scenario


def member_plan(spec: ScenarioSpec, kernel: Kernel) -> list[AddSpec]:
    """The deterministic member placement a spec describes.

    Draws from the kernel's ``"workload.placement"`` stream in exactly
    the order the God-mode seeder always has, so the same seed yields
    the same placements whether a world is seeded instantly or
    populated over RPC by a benchmark measuring the write path itself.
    """
    stream = kernel.stream("workload.placement")
    plan: list[AddSpec] = []
    for i in range(spec.n_members):
        cluster = stream.zipf_index(spec.n_clusters, spec.placement_skew)
        node_index = stream.randint(0, spec.cluster_size - 1)
        plan.append(AddSpec(name=f"m{i:04d}", value=f"payload-{i}",
                            home=f"n{cluster}.{node_index}",
                            size=spec.member_size,
                            replicas=_object_replicas(spec, cluster, node_index)))
    return plan


def _object_replicas(spec: ScenarioSpec, cluster: int,
                     node_index: int) -> tuple[NodeId, ...]:
    """Object replicas go to the same node slot in the next clusters
    around the ring — deterministic, and never on the home cluster, so a
    whole-cluster outage still leaves a copy elsewhere."""
    return tuple(
        f"n{(cluster + k) % spec.n_clusters}.{node_index}"
        for k in range(1, 1 + min(spec.object_replicas, spec.n_clusters - 1)))


class Mutator:
    """Background process mutating a collection at given rates.

    Adds create fresh members (on random nodes); removes pick random
    current members.  Mutations originate at the primary's node so they
    stay possible under client-side partitions.  Failed mutations
    (unreachable homes, policy rejections) are counted and skipped.
    """

    def __init__(self, scenario: Scenario, *, add_rate: float = 0.0,
                 remove_rate: float = 0.0, stream_name: str = "mutator"):
        self.scenario = scenario
        self.add_rate = add_rate
        self.remove_rate = remove_rate
        self.stream = scenario.kernel.stream(stream_name)
        self.repo = Repository(scenario.world, scenario.spec.primary)
        self.added: list = []
        self.removed: list = []
        self.failures = 0
        self._counter = itertools.count(1)

    def start(self) -> None:
        total = self.add_rate + self.remove_rate
        if total > 0:
            self.scenario.kernel.spawn(self._run(), name="mutator", daemon=True)

    def _run(self) -> Generator:
        from ..errors import MutationNotAllowed, StoreError, FailureException
        spec = self.scenario.spec
        total = self.add_rate + self.remove_rate
        while True:
            yield Sleep(self.stream.exponential(1.0 / total))
            do_add = self.stream.random() * total < self.add_rate
            try:
                if do_add:
                    i = next(self._counter)
                    cluster = self.stream.zipf_index(spec.n_clusters,
                                                     spec.placement_skew)
                    node_index = self.stream.randint(0, spec.cluster_size - 1)
                    node = f"n{cluster}.{node_index}"
                    replicas = _object_replicas(spec, cluster, node_index)
                    # One-spec batch through the write pipeline: same
                    # RPC sequence as repo.add, but with the replica
                    # fan-out concurrent and the registration group-
                    # committed — the path real bulk writers take.
                    added = yield from self.repo.add_many(
                        spec.coll_id,
                        [AddSpec(f"added-{i:04d}",
                                 value=f"added-payload-{i}", home=node,
                                 size=spec.member_size, replicas=replicas)],
                        window=1, batch_size=1,
                    )
                    self.added.extend(added)
                else:
                    current = sorted(
                        self.scenario.world.true_members(spec.coll_id),
                        key=lambda e: e.name,
                    )
                    if not current:
                        continue
                    victim = current[self.stream.randint(0, len(current) - 1)]
                    yield from self.repo.remove(spec.coll_id, victim)
                    self.removed.append(victim)
            except (FailureException, MutationNotAllowed, StoreError):
                self.failures += 1
