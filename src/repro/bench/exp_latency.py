"""E2 — time-to-first-element, and E3 — parallel closest-first prefetch.

E2 quantifies §1.1's advantage (1): "We can return information to the
user more quickly by yielding partial information"; weak iterators
stream, the strong baseline prefetches everything under a lock before
its first yield.

E3 quantifies advantage (2): "we can implement such file system
commands more efficiently by fetching files in parallel, fetching
'closer' files first" — weak_ls against the traditional strict ls, with
parallelism and ordering ablations.
"""

from __future__ import annotations

from typing import Iterable

from ..dynsets import FileSystem, strict_ls, weak_ls
from ..net.fabric import Network
from ..net.link import FixedLatency
from ..net.topology import wan_clusters
from ..sim.kernel import Kernel
from ..store.world import World
from ..wan.workload import ScenarioSpec, build_scenario
from ..weaksets import (
    DynamicSet,
    GrowOnlySet,
    SnapshotSet,
    StrongSet,
    install_lock_service,
)
from .harness import drain
from .report import ExperimentResult

__all__ = ["run_time_to_first", "run_prefetch", "run_early_exit",
           "build_scattered_fs"]

_E2_IMPLS = (
    ("strong (lock+prefetch)", StrongSet, {}),
    ("fig4 snapshot", SnapshotSet, {}),
    ("fig5 grow-only", GrowOnlySet, {}),
    ("fig6 dynamic", DynamicSet, {}),
)


def run_time_to_first(sizes: Iterable[int] = (10, 40, 160),
                      seed: int = 0) -> ExperimentResult:
    """E2: time to first element and total time, per semantics and size."""
    result = ExperimentResult(
        "E2", "Time-to-first-element vs set size (seconds, simulated)",
        columns=["members", "impl", "time_to_first", "total_time", "yielded"],
        notes="weak iterators stream; the strong baseline's first yield "
              "waits for the full locked prefetch",
    )
    for size in sizes:
        for impl_name, cls, kwargs in _E2_IMPLS:
            policy = "grow-only" if cls is GrowOnlySet else "any"
            spec = ScenarioSpec(n_clusters=4, cluster_size=3, n_members=size,
                                policy=policy, heavy_tail=False)
            scenario = build_scenario(spec, seed=seed)
            install_lock_service(scenario.world, spec.primary)
            ws = cls(scenario.world, scenario.client, spec.coll_id,
                     record=False, **kwargs)
            drained = drain(scenario, ws.elements())
            result.add(
                members=size,
                impl=impl_name,
                time_to_first=drained.time_to_first,
                total_time=drained.total_time,
                yielded=len(drained.yields),
            )
    return result


def run_early_exit(set_size: int = 60, wanted: Iterable[int] = (1, 3, 10),
                   seed: int = 0) -> ExperimentResult:
    """E2a: the browsing user who stops after K answers.

    The paper's tourist "would not go hungry": weak sets let a user who
    wants only a few answers pay only for those few.  The strong
    baseline prefetches all ``set_size`` members under its lock before
    the first yield, so K is irrelevant to its cost.
    """
    result = ExperimentResult(
        "E2a", f"Early exit: cost of the first K of {set_size} members",
        columns=["wanted", "impl", "time_to_K", "fraction_of_full_cost"],
        notes="weak cost scales with K; strong cost is flat at the full "
              "prefetch price regardless of K",
    )
    full_costs = {}
    # k=None first: each impl's full-drain cost, the denominator
    for k in (None, *wanted):
        for impl_name, cls in (("strong", StrongSet), ("fig6 dynamic", DynamicSet)):
            spec = ScenarioSpec(n_clusters=4, cluster_size=3, n_members=set_size)
            scenario = build_scenario(spec, seed=seed)
            install_lock_service(scenario.world, spec.primary)
            ws = cls(scenario.world, scenario.client, spec.coll_id, record=False)
            cost = drain(scenario, ws.elements(), max_yields=k).total_time
            if k is None:
                full_costs[impl_name] = cost
            else:
                result.add(wanted=k, impl=impl_name, time_to_K=cost,
                           fraction_of_full_cost=cost / full_costs[impl_name])
    return result


def build_scattered_fs(n_files: int, seed: int = 0, *,
                       n_clusters: int = 4, cluster_size: int = 3,
                       service_time: float = 0.01,
                       file_size: int = 4096):
    """A directory whose files are scattered over WAN clusters."""
    kernel = Kernel(seed=seed)
    # 1 MB/s on every link: file transfer time now accrues on the wire
    # (FIFO links), not as server service time.
    topo = wan_clusters([cluster_size] * n_clusters,
                        intra_latency=FixedLatency(0.002),
                        inter_latency=FixedLatency(0.060),
                        intra_bandwidth=1_000_000.0,
                        inter_bandwidth=1_000_000.0)
    topo.add_node("client")
    topo.add_link("client", "n0.0", FixedLatency(0.002),
                  bandwidth=1_000_000.0)
    net = Network(kernel, topo)
    world = World(net, service_time=service_time)
    fs = FileSystem(world, root_node="n0.0")
    fs.mkdir("/pub", node="n0.0")
    stream = kernel.stream("fs.seed")
    for i in range(n_files):
        cluster = stream.zipf_index(n_clusters, 0.8)
        node = f"n{cluster}.{stream.randint(0, cluster_size - 1)}"
        fs.create_file(f"/pub/f{i:03d}", content=f"bytes-{i}", home=node,
                       size=file_size)
    return kernel, net, world, fs


def run_prefetch(sizes: Iterable[int] = (8, 32),
                 seed: int = 0) -> ExperimentResult:
    """E3: strict ls vs weak ls across parallelism and ordering."""
    variants = (
        ("strict ls (sequential, all-or-nothing)", None),
        ("weak ls p=1", dict(parallelism=1)),
        ("weak ls p=4", dict(parallelism=4)),
        ("weak ls p=8", dict(parallelism=8)),
        ("weak ls p=8 random-order", dict(parallelism=8, closest_first=False)),
    )
    result = ExperimentResult(
        "E3", "ls latency: parallel + closest-first prefetch (seconds)",
        columns=["files", "variant", "time_to_first", "total_time"],
        notes="closest-first cuts time-to-first; parallelism cuts total",
    )
    for n_files in sizes:
        for name, kwargs in variants:
            kernel, net, world, fs = build_scattered_fs(n_files, seed=seed)
            ls_result = kernel.run_process(
                strict_ls(fs, "client", "/pub") if kwargs is None
                else weak_ls(fs, "client", "/pub", **kwargs))
            result.add(
                files=n_files,
                variant=name,
                time_to_first=ls_result.time_to_first,
                total_time=ls_result.total_time,
            )
    return result
