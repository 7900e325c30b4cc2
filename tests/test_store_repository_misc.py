"""Repository/World odds and ends not covered elsewhere."""

import pytest

from repro.errors import NoSuchCollectionError, UnreachableObjectFailure
from repro.store import MembershipView, Repository

from helpers import CLIENT, PRIMARY, replace_item, standard_world


def test_membership_view_fields():
    kernel, net, world, elements = standard_world(members=2)
    repo = Repository(world, CLIENT)

    def proc():
        return (yield from repo.read_membership("coll", source="primary"))

    view = kernel.run_process(proc())
    assert isinstance(view, MembershipView)
    assert view.coll_id == "coll"
    assert view.source == PRIMARY
    assert view.version == 2            # two seeds
    assert view.read_at == pytest.approx(kernel.now, abs=1e-6)
    assert "2 members" in repr(view)


def test_read_membership_from_specific_replica():
    kernel, net, world, elements = standard_world(members=2, replicas=1)
    repo = Repository(world, CLIENT)

    def proc():
        return (yield from repo.read_membership("coll", source="s1"))

    view = kernel.run_process(proc())
    assert view.source == "s1"
    assert view.members == frozenset(elements)   # seeding syncs replicas


def test_read_membership_nearest_with_nothing_reachable():
    kernel, net, world, elements = standard_world(members=1)
    net.isolate(CLIENT)
    repo = Repository(world, CLIENT)

    def proc():
        try:
            yield from repo.read_membership("coll", source="nearest")
        except UnreachableObjectFailure:
            return "unreachable"

    assert kernel.run_process(proc()) == "unreachable"


def test_probe_reports_existence():
    kernel, net, world, elements = standard_world(members=1)
    repo = Repository(world, CLIENT)

    def proc():
        alive = yield from repo.probe(elements[0])
        yield from repo.remove("coll", elements[0])
        gone = yield from repo.probe(elements[0])
        return alive, gone

    assert kernel.run_process(proc()) == (True, False)


def test_hosts_and_primary_metadata():
    kernel, net, world, elements = standard_world(members=0, replicas=2)
    repo = Repository(world, CLIENT)
    assert repo.primary_of("coll") == PRIMARY
    assert repo.hosts_of("coll") == (PRIMARY, "s1", "s2")
    with pytest.raises(NoSuchCollectionError):
        repo.hosts_of("nope")


def test_membership_view_cached_and_bypassed():
    from repro.store import ClientCache
    kernel, net, world, elements = standard_world(members=2)
    cache = ClientCache(ttl=10.0)
    repo = Repository(world, CLIENT, cache=cache)

    def proc():
        yield from repo.read_membership("coll", use_cache=True)
        e = yield from repo.add("coll", "new", value="N")
        stale = yield from repo.read_membership("coll", use_cache=True)
        fresh = yield from repo.read_membership("coll", use_cache=False)
        return e, stale, fresh

    e, stale, fresh = kernel.run_process(proc())
    assert e not in stale.members        # served from cache
    assert e in fresh.members            # bypass read through
    assert cache.hits >= 1


def test_world_repr_and_collection_info():
    kernel, net, world, elements = standard_world(members=1, replicas=1)
    info = world.collection_info("coll")
    assert info.primary == PRIMARY
    assert info.hosts == (PRIMARY, "s1")
    assert "coll" in repr(world)
    assert len(info.history) == 2        # empty + one seed


def test_reachable_of_arbitrary_member_sets():
    kernel, net, world, elements = standard_world(n_servers=3, members=3)
    net.isolate("s1")
    subset = frozenset(e for e in elements if e.home != "s2")
    reachable = world.reachable_of(subset, CLIENT)
    assert all(e.home != "s1" for e in reachable)
    assert reachable == frozenset(e for e in subset if e.home != "s1")


def test_replace_models_item_mutation():
    """Remove-then-add, per the paper's item-mutation model."""
    kernel, net, world, elements = standard_world(members=2)
    repo = Repository(world, CLIENT)
    old = elements[0]

    def proc():
        return (yield from replace_item(repo, "coll", old, f"{old.name}-v2",
                                        value="updated"))

    new = kernel.run_process(proc())
    truth = world.true_members("coll")
    assert old not in truth
    assert new in truth
    assert new.home == old.home          # stays on the same node
    assert new.oid != old.oid            # but is a distinct element


def test_replace_can_relocate():
    kernel, net, world, elements = standard_world(members=1)
    repo = Repository(world, CLIENT)

    def proc():
        return (yield from replace_item(repo, "coll", elements[0], "moved",
                                        value="v", home="s3"))

    new = kernel.run_process(proc())
    assert new.home == "s3"
