"""Union queries across independent repositories."""

import pytest

from repro.net import FixedLatency, Network, full_mesh
from repro.sim import Kernel
from repro.spec import Failed, Returned
from repro.store import World
from repro.weaksets import DynamicSet, SnapshotSet, UnionIterator, union

from helpers import record_spawns


def two_repositories(shared_names=(), seed=0):
    """Two collections on disjoint server sets, with optional overlap."""
    kernel = Kernel(seed=seed)
    nodes = ["client", "a0", "a1", "b0", "b1"]
    net = Network(kernel, full_mesh(nodes, FixedLatency(0.01)))
    world = World(net)
    world.create_collection("repo-a", primary="a0")
    world.create_collection("repo-b", primary="b0")
    a_members, b_members = [], []
    for i in range(4):
        a_members.append(world.seed_member("repo-a", f"a-{i}", value=f"A{i}",
                                           home=f"a{i % 2}"))
        b_members.append(world.seed_member("repo-b", f"b-{i}", value=f"B{i}",
                                           home=f"b{i % 2}"))
    for name in shared_names:
        a_members.append(world.seed_member("repo-a", name, value="shared-a",
                                           home="a1"))
        b_members.append(world.seed_member("repo-b", name, value="shared-b",
                                           home="b1"))
    return kernel, net, world, a_members, b_members


def test_union_covers_both_repositories():
    kernel, net, world, a_members, b_members = two_repositories()
    ws_a = DynamicSet(world, "client", "repo-a")
    ws_b = DynamicSet(world, "client", "repo-b")
    u = union(ws_a, ws_b)

    def proc():
        return (yield from u.drain())

    result = kernel.run_process(proc())
    assert isinstance(result.outcome, Returned)
    assert frozenset(result.elements) == frozenset(a_members + b_members)


def test_union_interleaves_sources():
    kernel, net, world, a_members, b_members = two_repositories()
    u = union(DynamicSet(world, "client", "repo-a"),
              DynamicSet(world, "client", "repo-b"))

    def proc():
        return (yield from u.drain())

    result = kernel.run_process(proc())
    prefixes = [e.name[0] for e in result.elements]
    # round-robin: both sources appear within the first few yields
    assert set(prefixes[:3]) == {"a", "b"}


def test_union_deduplicates_by_name():
    kernel, net, world, a_members, b_members = two_repositories(
        shared_names=["shared-doc"])
    u = union(DynamicSet(world, "client", "repo-a"),
              DynamicSet(world, "client", "repo-b"))

    def proc():
        return (yield from u.drain())

    result = kernel.run_process(proc())
    names = [e.name for e in result.elements]
    assert names.count("shared-doc") == 1
    assert u.duplicates_suppressed == 1
    assert len(result.elements) == 9     # 4 + 4 + 1 shared


def test_union_without_dedupe_keeps_both():
    kernel, net, world, a_members, b_members = two_repositories(
        shared_names=["shared-doc"])
    u = union(DynamicSet(world, "client", "repo-a"),
              DynamicSet(world, "client", "repo-b"), dedupe=False)

    def proc():
        return (yield from u.drain())

    result = kernel.run_process(proc())
    names = [e.name for e in result.elements]
    assert names.count("shared-doc") == 2
    # "though we probably would not be overly annoyed if there were"


def test_union_skips_failed_source_by_default():
    kernel, net, world, a_members, b_members = two_repositories()
    net.crash("b0")      # repo-b's primary: its snapshot iterator fails
    u = union(DynamicSet(world, "client", "repo-a"),
              SnapshotSet(world, "client", "repo-b"))

    def proc():
        return (yield from u.drain())

    result = kernel.run_process(proc())
    assert isinstance(result.outcome, Returned)
    assert frozenset(result.elements) == frozenset(a_members)
    assert len(u.failed_sources) == 1


def test_union_fail_policy_propagates():
    kernel, net, world, a_members, b_members = two_repositories()
    net.crash("b0")
    u = union(DynamicSet(world, "client", "repo-a"),
              SnapshotSet(world, "client", "repo-b"), on_failure="fail")

    def proc():
        return (yield from u.drain())

    result = kernel.run_process(proc())
    assert isinstance(result.outcome, Failed)


def test_a_failed_union_leaves_no_source_running(monkeypatch):
    """The sources still active when a ``fail`` union fails are abandoned:
    their iterators terminate and their fetch pipelines stop, leaving no
    worker alive and no listener on the world."""
    spawned = record_spawns(monkeypatch)
    kernel, net, world, a_members, b_members = two_repositories()
    net.crash("b0")
    u = union(DynamicSet(world, "client", "repo-a"),
              SnapshotSet(world, "client", "repo-b"), on_failure="fail")

    def proc():
        return (yield from u.drain())

    result = kernel.run_process(proc())
    assert isinstance(result.outcome, Failed)
    # asked first: a leaked source's pipeline workers are named by it
    assert any(p.name.startswith("dynamic-repo-a-w") for p in spawned)
    assert [p.name for p in spawned
            if not p.finished and p.name != "repair-scrub"] == []
    assert all(source.terminated for source in u.sources)
    assert world._listeners == []


def test_union_of_nothing_returns_immediately():
    u = UnionIterator([])

    def proc():
        return (yield from u.drain())

    result = Kernel().run_process(proc())
    assert isinstance(result.outcome, Returned)
    assert result.elements == []


def test_union_bad_policy_rejected():
    with pytest.raises(ValueError):
        UnionIterator([], on_failure="explode")


def test_union_max_yields():
    kernel, net, world, a_members, b_members = two_repositories()
    u = union(DynamicSet(world, "client", "repo-a"),
              DynamicSet(world, "client", "repo-b"))

    def proc():
        return (yield from u.drain(max_yields=3))

    result = kernel.run_process(proc())
    assert len(result.elements) == 3
    assert not u.terminated
