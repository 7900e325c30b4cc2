"""Repository.probe, and the fetch pipeline's replica failover, under
network partitions."""

import pytest

from repro.errors import FailureException
from repro.sim import Sleep
from repro.store import Repository
from repro.weaksets import DynamicSet, QuorumGrowOnlySet

from helpers import CLIENT, failover_fetch, standard_world


# ---------------------------------------------------------------------------
# probe under partitions
# ---------------------------------------------------------------------------

def test_probe_true_for_live_member_across_partition_heal():
    kernel, net, world, elements = standard_world(n_servers=3, members=3)
    repo = Repository(world, CLIENT)

    def proc():
        assert (yield from repo.probe(elements[0]))
        net.split([CLIENT, "s1"], ["s0", "s2"])
        try:
            yield from repo.probe(elements[0])      # home s0: other side
        except FailureException:
            pass
        else:
            raise AssertionError("probe across the partition should fail")
        net.heal()
        return (yield from repo.probe(elements[0]))

    assert kernel.run_process(proc())


def test_probe_false_is_authoritative_removed():
    kernel, net, world, elements = standard_world(n_servers=2, members=2)
    repo = Repository(world, CLIENT)

    def proc():
        yield from repo.remove("coll", elements[0])
        return (yield from repo.probe(elements[0]))

    assert kernel.run_process(proc()) is False


# ---------------------------------------------------------------------------
# replica failover across a partition
# ---------------------------------------------------------------------------

def partitioned_world():
    """Home s1 on the far side of a split; replica s2 near the client."""
    kernel, net, world, _ = standard_world(n_servers=3)
    element = world.seed_member("coll", "doc", value="payload", home="s1",
                                replicas=("s2",))
    net.split([CLIENT, "s0", "s2"], ["s1"])
    return kernel, net, world, element


def test_fetch_fails_over_to_replica_across_partition():
    kernel, net, world, element = partitioned_world()
    repo = Repository(world, CLIENT)
    result = kernel.run_process(failover_fetch(repo, element))
    assert result.ok and result.value == "payload"
    assert net.kernel.obs.metrics.value("rpc.failovers") == 1


def test_fetch_without_failover_respects_the_partition():
    kernel, net, world, element = partitioned_world()
    repo = Repository(world, CLIENT)

    def proc():
        return (yield from repo.fetch(element))

    with pytest.raises(FailureException):
        kernel.run_process(proc())


def test_failover_propagates_authoritative_removal():
    """With the home reachable, its "removed" answer wins: failover must
    not resurrect the member from a stale replica copy."""
    kernel, net, world, _ = standard_world(n_servers=3)
    element = world.seed_member("coll", "doc", value="payload", home="s1",
                                replicas=("s2",))
    repo = Repository(world, CLIENT)

    def proc():
        yield from repo.remove("coll", element)
        return (yield from failover_fetch(repo, element))

    assert kernel.run_process(proc()).gone
    assert net.kernel.obs.metrics.value("rpc.failovers") == 0


# ---------------------------------------------------------------------------
# iterator-level behaviour under partitions
# ---------------------------------------------------------------------------

def test_dynamic_drain_completes_through_failover_under_partition():
    kernel, net, world, _ = standard_world(n_servers=4, replicas=2)
    elements = [world.seed_member("coll", f"m{i}", value=f"v{i}",
                                  home=f"s{i % 4}",
                                  replicas=(f"s{(i + 1) % 4}",))
                for i in range(8)]
    ws = DynamicSet(world, CLIENT, "coll", failover=True)
    iterator = ws.elements()

    def proc():
        # s3 drops mid-drain; every element homed there has a replica on
        # the client's side of the split.
        net.split([CLIENT, "s0", "s1", "s2"], ["s3"])
        return (yield from iterator.drain())

    result = kernel.run_process(proc())
    assert not result.failed
    assert len(result.elements) == 8
    assert net.kernel.obs.metrics.value("rpc.failovers") > 0


def test_quorum_drain_survives_minority_partition():
    kernel, net, world, _ = standard_world(
        n_servers=4, policy="grow-only", replicas=2, replica_lag=0.05)
    elements = [world.seed_member("coll", f"m{i}", value=f"v{i}",
                                  home=f"s{i % 4}",
                                  replicas=(f"s{(i + 1) % 4}",))
                for i in range(8)]
    ws = QuorumGrowOnlySet(world, CLIENT, "coll")
    iterator = ws.elements()

    def proc():
        yield Sleep(0.5)               # let replicas sync the membership
        net.split([CLIENT, "s0", "s1", "s3"], ["s2"])
        return (yield from iterator.drain())

    result = kernel.run_process(proc())
    # membership quorum: s0 (primary), s1, s2 — two of three reachable;
    # elements homed on the minority side come from their replicas
    assert not result.failed
    assert len(result.elements) == 8
