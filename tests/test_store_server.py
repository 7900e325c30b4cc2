"""ObjectServer edge cases: updates, tombstones, transfer time, ghosts."""

import pytest

from repro.errors import (
    MutationNotAllowed,
    NoSuchCollectionError,
    NoSuchObjectError,
    SimulationError,
)
from repro.net.wire import unwrap
from repro.store import Repository

from helpers import CLIENT, PRIMARY, fresh_oid, standard_world


def test_put_object_update_bumps_version():
    kernel, net, world, _ = standard_world()
    server = world.server("s1")

    def proc():
        v1 = yield from server.put_object("oid-1", "first")
        v2 = yield from server.put_object("oid-1", "second")
        value = yield from server.get_object("oid-1")
        return v1, v2, value

    v1, v2, value = kernel.run_process(proc())
    assert (v1, v2) == (1, 2)
    assert unwrap(value) == "second"   # reads ship as wire Blobs


def test_put_after_delete_recreates():
    kernel, net, world, _ = standard_world()
    server = world.server("s1")

    def proc():
        yield from server.put_object("oid-x", "v")
        yield from server.put_object("oid-x", "v2")      # version 2
        yield from server.delete_object("oid-x")
        redeleted = yield from server.delete_object("oid-x")
        v = yield from server.put_object("oid-x", "reborn")
        value = yield from server.get_object("oid-x")
        return redeleted, v, value

    redeleted, v, value = kernel.run_process(proc())
    assert redeleted is False          # deleting twice is a no-op
    assert v == 3                      # resumes past the tombstone's version
    assert unwrap(value) == "reborn"


def test_get_missing_object_raises():
    kernel, net, world, _ = standard_world()
    server = world.server("s1")

    def proc():
        try:
            yield from server.get_object("never-existed")
        except NoSuchObjectError:
            return "missing"

    assert kernel.run_process(proc()) == "missing"


def test_transfer_time_scales_with_size():
    from repro.store import Element

    kernel, net, world, _ = standard_world(bandwidth=1_000_000.0)
    big = Element("big", "oid-big", "s1")
    world.server("s1").store_direct(big, value="x" * 10, size=2_000_000)
    repo = Repository(world, CLIENT)

    def proc():
        t0 = kernel.now
        yield from repo.fetch(big)
        return kernel.now - t0

    elapsed = kernel.run_process(proc())
    assert elapsed >= 2.0              # 2 MB over 1 MB/s


def test_mutation_via_replica_is_rejected():
    kernel, net, world, _ = standard_world(replicas=1)
    from repro.store import Element
    e = Element("x", fresh_oid("x"), "s2")

    def proc():
        try:
            yield from net.call(CLIENT, "s1", "store", "add_member", "coll", e)
        except SimulationError as exc:
            return "replica" in str(exc)

    assert kernel.run_process(proc())


def test_add_member_idempotent_and_name_conflicts():
    kernel, net, world, elements = standard_world(members=1)
    from repro.store import Element
    same = elements[0]
    conflicting = Element(same.name, "different-oid", "s2")

    def proc():
        server = world.server(PRIMARY)
        v1 = yield from server.add_member("coll", same)       # idempotent
        try:
            yield from server.add_member("coll", conflicting)
        except MutationNotAllowed:
            return v1, "conflict rejected"

    v1, verdict = kernel.run_process(proc())
    assert verdict == "conflict rejected"


def test_list_members_on_non_host_raises():
    kernel, net, world, _ = standard_world()

    def proc():
        try:
            yield from net.call(CLIENT, "s2", "store", "list_members", "coll")
        except NoSuchCollectionError:
            return "not hosted"

    assert kernel.run_process(proc()) == "not hosted"


def test_duplicate_host_collection_rejected():
    kernel, net, world, _ = standard_world()
    with pytest.raises(SimulationError):
        world.server(PRIMARY).host_collection("coll", "any", is_primary=True)


def test_unknown_policy_rejected():
    kernel, net, world, _ = standard_world()
    with pytest.raises(SimulationError):
        world.server("s2").host_collection("c2", "bogus-policy", is_primary=True)


def test_ghost_purge_retries_after_failure():
    """A ghost whose home is unreachable at purge time survives and is
    purged by a later end_iteration."""
    kernel, net, world, _ = standard_world(policy="grow-during-run")
    victim = world.seed_member("coll", "victim", home="s2")
    repo = Repository(world, CLIENT)

    def proc():
        token1 = yield from repo.begin_iteration("coll")
        yield from repo.remove("coll", victim)           # ghost now
        net.isolate("s2")                                # purge will fail
        purged1 = yield from repo.end_iteration("coll", token1)
        assert victim in world.true_members("coll")      # still pending
        net.rejoin("s2")
        token2 = yield from repo.begin_iteration("coll")
        purged2 = yield from repo.end_iteration("coll", token2)
        return purged1, purged2

    purged1, purged2 = kernel.run_process(proc())
    assert purged1 == 0
    assert purged2 == 1
    assert victim not in world.true_members("coll")


def test_ghost_purge_retries_after_home_crash():
    """Same retry path as above, but via the NodeCrashFailure branch:
    the ghost's home is *crashed* (not partitioned) at purge time."""
    kernel, net, world, _ = standard_world(policy="grow-during-run")
    victim = world.seed_member("coll", "victim", home="s2")
    repo = Repository(world, CLIENT)

    def proc():
        token1 = yield from repo.begin_iteration("coll")
        yield from repo.remove("coll", victim)           # ghost now
        net.crash("s2")                                  # purge will fail
        purged1 = yield from repo.end_iteration("coll", token1)
        assert victim in world.true_members("coll")      # still pending
        net.recover("s2")
        token2 = yield from repo.begin_iteration("coll")
        purged2 = yield from repo.end_iteration("coll", token2)
        return purged1, purged2

    purged1, purged2 = kernel.run_process(proc())
    assert purged1 == 0
    assert purged2 == 1
    assert victim not in world.true_members("coll")
    assert world.check_invariants() == []


def test_failed_ghost_purge_aborts_its_intent():
    """A purge that dies against an unreachable home leaves an aborted
    WAL intent (not a pending one) and an intact member — deviation #3
    semantics, now with bookkeeping."""
    kernel, net, world, _ = standard_world(policy="grow-during-run")
    victim = world.seed_member("coll", "victim", home="s2")
    repo = Repository(world, CLIENT)
    server = world.server(PRIMARY)

    def proc():
        token = yield from repo.begin_iteration("coll")
        yield from repo.remove("coll", victim)
        net.isolate("s2")
        purged = yield from repo.end_iteration("coll", token)
        return purged

    assert kernel.run_process(proc()) == 0
    aborted = [r for r in server.wal.records if r.origin == "purge"]
    assert len(aborted) == 1
    from repro.store.wal import ABORTED
    assert aborted[0].status is ABORTED
    assert server.wal.pending() == []                    # clean failure, not a crash
    assert kernel.obs.metrics.value("wal.aborts") >= 1
    net.rejoin("s2")
    assert world.check_invariants() == []


def test_partial_ghost_purge_completes_later():
    """A purge that deleted an object replica but could not reach the
    home aborts whole; the next end_iteration finishes the job
    idempotently (re-deleting the already-dead replica is a no-op)."""
    kernel, net, world, _ = standard_world(policy="grow-during-run")
    victim = world.seed_member("coll", "victim", home="s2", replicas=("s3",))
    repo = Repository(world, CLIENT)

    def proc():
        token1 = yield from repo.begin_iteration("coll")
        yield from repo.remove("coll", victim)
        net.isolate("s2")                                # replica s3 still up
        purged1 = yield from repo.end_iteration("coll", token1)
        replica_dead = not world.server("s3").has_object(victim.oid)
        net.rejoin("s2")
        token2 = yield from repo.begin_iteration("coll")
        purged2 = yield from repo.end_iteration("coll", token2)
        return purged1, replica_dead, purged2

    purged1, replica_dead, purged2 = kernel.run_process(proc())
    assert purged1 == 0
    assert replica_dead                                  # partial progress happened
    assert victim not in world.true_members("coll") and purged2 == 1
    assert world.check_invariants() == []


def test_crash_preserves_objects_and_membership():
    kernel, net, world, elements = standard_world(members=3)
    server = world.server(PRIMARY)
    objects_before = dict(server.objects)
    net.crash(PRIMARY)
    net.recover(PRIMARY)
    assert server.objects == objects_before
    assert world.true_members("coll") == frozenset(elements)
