"""Tests for the object store: servers, collections, replication, truth."""

import pytest

from repro.errors import (
    FailureException,
    MutationNotAllowed,
    NoSuchCollectionError,
    NoSuchObjectError,
    SimulationError,
)
from repro.net import FixedLatency, Network, full_mesh
from repro.sim import Kernel, Sleep
from repro.store import Repository, World


def make_world(nodes=("client", "p", "r1", "r2"), seed=0, **kwargs):
    kernel = Kernel(seed=seed)
    net = Network(kernel, full_mesh(nodes, FixedLatency(0.01)))
    world = World(net, **kwargs)
    return kernel, net, world


def run(kernel, gen):
    return kernel.run_process(gen)


# ---------------------------------------------------------------------------
# collection setup and seeding
# ---------------------------------------------------------------------------

def test_create_collection_and_seed():
    kernel, net, world = make_world()
    world.create_collection("files", primary="p", replicas=["r1"])
    e1 = world.seed_member("files", "a.txt", value="A", home="r2")
    e2 = world.seed_member("files", "b.txt", value="B")
    truth = world.true_members("files")
    assert truth == frozenset({e1, e2})
    assert e1.home == "r2"
    assert e2.home == "p"  # defaults to the primary


def test_duplicate_collection_rejected():
    kernel, net, world = make_world()
    world.create_collection("c", primary="p")
    with pytest.raises(SimulationError):
        world.create_collection("c", primary="r1")


def test_primary_cannot_be_replica():
    kernel, net, world = make_world()
    with pytest.raises(SimulationError):
        world.create_collection("c", primary="p", replicas=["p"])


def test_unknown_collection_raises():
    kernel, net, world = make_world()
    with pytest.raises(NoSuchCollectionError):
        world.true_members("nope")


def test_duplicate_seed_name_rejected():
    kernel, net, world = make_world()
    world.create_collection("c", primary="p")
    world.seed_member("c", "x")
    with pytest.raises(SimulationError):
        world.seed_member("c", "x")


# ---------------------------------------------------------------------------
# repository reads
# ---------------------------------------------------------------------------

def test_read_membership_from_primary():
    kernel, net, world = make_world()
    world.create_collection("c", primary="p")
    e = world.seed_member("c", "x", value=1)
    repo = Repository(world, "client")

    def proc():
        view = yield from repo.read_membership("c", source="primary")
        return view

    view = run(kernel, proc())
    assert view.members == frozenset({e})
    assert view.source == "p"


def test_fetch_object_value():
    kernel, net, world = make_world()
    world.create_collection("c", primary="p")
    e = world.seed_member("c", "x", value="payload", home="r1")
    repo = Repository(world, "client")

    def proc():
        return (yield from repo.fetch(e))

    assert run(kernel, proc()) == "payload"


def test_fetch_unreachable_home_fails():
    kernel, net, world = make_world()
    world.create_collection("c", primary="p")
    e = world.seed_member("c", "x", value="v", home="r1")
    net.isolate("r1")
    repo = Repository(world, "client")

    def proc():
        try:
            yield from repo.fetch(e)
        except FailureException:
            return "failed"

    assert run(kernel, proc()) == "failed"


def test_nearest_host_prefers_low_latency():
    kernel = Kernel()
    topo = full_mesh(["client", "p", "r1"], latency_for=lambda a, b: (
        FixedLatency(0.001) if {a, b} == {"client", "r1"} else FixedLatency(0.1)
    ))
    net = Network(kernel, topo)
    world = World(net)
    world.create_collection("c", primary="p", replicas=["r1"])
    repo = Repository(world, "client")
    # The one ranking policy a "nearest" membership read takes the
    # first host of.
    assert repo._rank(repo.hosts_of("c"))[:1] == ("r1",)
    net.isolate("r1")
    assert repo._rank(repo.hosts_of("c"))[:1] == ("p",)
    net.split(["client"])
    assert repo._rank(repo.hosts_of("c"))[:1] == ()


# ---------------------------------------------------------------------------
# repository writes + ground truth
# ---------------------------------------------------------------------------

def test_add_and_remove_via_rpc():
    kernel, net, world = make_world()
    world.create_collection("c", primary="p")
    repo = Repository(world, "client")

    def proc():
        e = yield from repo.add("c", "new.txt", value="N", home="r1")
        assert world.true_members("c") == frozenset({e})
        value = yield from repo.fetch(e)
        assert value == "N"
        yield from repo.remove("c", e)
        return e

    e = run(kernel, proc())
    assert world.true_members("c") == frozenset()

    # the data object was tombstoned at its home
    def proc2():
        try:
            yield from repo.fetch(e)
        except NoSuchObjectError:
            return "gone"

    assert run(kernel, proc2()) == "gone"


def test_remove_is_idempotent():
    kernel, net, world = make_world()
    world.create_collection("c", primary="p")
    e = world.seed_member("c", "x")
    repo = Repository(world, "client")

    def proc():
        yield from repo.remove("c", e)
        yield from repo.remove("c", e)  # second remove is a no-op
        return True

    assert run(kernel, proc())


def test_remove_with_unreachable_member_home_fails_and_keeps_member():
    kernel, net, world = make_world()
    world.create_collection("c", primary="p")
    e = world.seed_member("c", "x", home="r1")
    net.isolate("r1")
    repo = Repository(world, "client")

    def proc():
        try:
            yield from repo.remove("c", e)
        except FailureException:
            return "failed"

    assert run(kernel, proc()) == "failed"
    assert e in world.true_members("c")  # membership unchanged


def test_grow_only_policy_rejects_remove():
    kernel, net, world = make_world()
    world.create_collection("g", primary="p", policy="grow-only")
    e = world.seed_member("g", "x")
    repo = Repository(world, "client")

    def proc():
        try:
            yield from repo.remove("g", e)
        except MutationNotAllowed:
            return "rejected"

    assert run(kernel, proc()) == "rejected"
    assert e in world.true_members("g")


def test_immutable_policy_rejects_mutation_after_seal():
    kernel, net, world = make_world()
    world.create_collection("i", primary="p", policy="immutable")
    world.seed_member("i", "x")
    world.seal("i")
    repo = Repository(world, "client")

    def proc():
        try:
            yield from repo.add("i", "y")
        except MutationNotAllowed:
            return "rejected"

    assert run(kernel, proc()) == "rejected"


# ---------------------------------------------------------------------------
# replication and staleness
# ---------------------------------------------------------------------------

def test_replica_catches_up_after_lag():
    kernel, net, world = make_world(replica_lag=0.5)
    world.create_collection("c", primary="p", replicas=["r1"])
    repo = Repository(world, "client")

    def proc():
        e = yield from repo.add("c", "x", value=1)
        stale = yield from repo.read_membership("c", source="r1")
        assert e not in stale.members  # replica has not synced yet
        yield Sleep(1.0)
        fresh = yield from repo.read_membership("c", source="r1")
        assert e in fresh.members
        return True

    assert run(kernel, proc())


def test_partitioned_replica_stays_stale():
    kernel, net, world = make_world(replica_lag=0.2)
    world.create_collection("c", primary="p", replicas=["r1"])
    e0 = world.seed_member("c", "old")
    net.split(["p", "client"], ["r1"])
    repo = Repository(world, "client")

    def proc():
        e1 = yield from repo.add("c", "new")
        yield Sleep(2.0)  # plenty of anti-entropy rounds, all blocked
        return e1

    e1 = run(kernel, proc())
    replica_state = world.server("r1").collections["c"]
    assert replica_state.value() == frozenset({e0})
    net.heal()

    def wait():
        yield Sleep(1.0)

    kernel.run_process(wait())
    assert replica_state.value() == frozenset({e0, e1})


def test_membership_survives_primary_crash():
    kernel, net, world = make_world()
    world.create_collection("c", primary="p")
    e = world.seed_member("c", "x")
    net.crash("p")
    assert world.true_members("c") == frozenset({e})  # durable storage
    net.recover("p")
    repo = Repository(world, "client")

    def proc():
        view = yield from repo.read_membership("c", source="primary")
        return view.members

    assert run(kernel, proc()) == frozenset({e})


def test_membership_history_records_every_value():
    kernel, net, world = make_world()
    world.create_collection("c", primary="p")
    e1 = world.seed_member("c", "a")
    e2 = world.seed_member("c", "b")
    repo = Repository(world, "client")

    def proc():
        yield from repo.remove("c", e1)

    run(kernel, proc())
    values = [v for (_, v) in world.membership_history("c")]
    assert values == [
        frozenset(),
        frozenset({e1}),
        frozenset({e1, e2}),
        frozenset({e2}),
    ]


def test_on_change_fires_for_membership_and_connectivity():
    kernel, net, world = make_world()
    world.create_collection("c", primary="p")
    events = []
    world.on_change(lambda: events.append(world.now))
    world.seed_member("c", "x")
    assert len(events) == 1
    net.isolate("r1")
    assert len(events) == 2
