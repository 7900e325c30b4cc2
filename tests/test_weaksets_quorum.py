"""QuorumGrowOnlySet: Figure 5 with quorum reads of s_pre."""


import pytest

from repro.sim import Sleep
from repro.spec import Returned, check_conformance, spec_by_id
from repro.store import Repository
from repro.weaksets import GrowOnlySet, QuorumGrowOnlySet

from helpers import CLIENT, PRIMARY, drain_all, sharded_world, standard_world


def quorum_world(**kwargs):
    # primary s0 + replicas s1, s2 => quorum is any 2 of 3
    return standard_world(policy="grow-only", replicas=2, **kwargs)


def test_iterates_like_fig5_on_quiet_world():
    kernel, net, world, elements = quorum_world(members=6)
    ws = QuorumGrowOnlySet(world, CLIENT, "coll")
    result = drain_all(kernel, ws)
    assert isinstance(result.outcome, Returned)
    assert frozenset(result.elements) == frozenset(elements)
    report = check_conformance(ws.last_trace, spec_by_id("fig5"), world)
    assert report.conformant, report.counterexample()


def test_survives_primary_crash_where_plain_fig5_dies():
    kernel, net, world, elements = quorum_world(members=6)
    net.crash(PRIMARY)
    # seeded members all live on s0..s3; those on the crashed primary
    # are unreachable, so even the quorum variant eventually fails —
    # but it *reads membership* fine and yields everything reachable.
    ws = QuorumGrowOnlySet(world, CLIENT, "coll")
    result = drain_all(kernel, ws)
    reachable = {e for e in elements if e.home != PRIMARY}
    assert frozenset(result.elements) == reachable

    # plain fig5 fails instantly: it cannot even read s_pre
    kernel2, net2, world2, elements2 = quorum_world(members=6)
    net2.crash(PRIMARY)
    plain = GrowOnlySet(world2, CLIENT, "coll")
    result2 = drain_all(kernel2, plain)
    assert result2.failed
    assert result2.elements == []


def test_completes_fully_when_no_member_on_primary():
    kernel, net, world, _ = quorum_world(members=0)
    elements = [world.seed_member("coll", f"x{i}", value=i, home=f"s{1 + i % 3}")
                for i in range(5)]
    net.crash(PRIMARY)
    ws = QuorumGrowOnlySet(world, CLIENT, "coll")
    result = drain_all(kernel, ws)
    assert isinstance(result.outcome, Returned)
    assert frozenset(result.elements) == frozenset(elements)


def test_fails_without_quorum():
    kernel, net, world, elements = quorum_world(members=4)
    net.crash("s0")
    net.crash("s1")      # 1 of 3 hosts left: no majority
    ws = QuorumGrowOnlySet(world, CLIENT, "coll")
    result = drain_all(kernel, ws)
    assert result.failed
    assert "quorum" in str(result.outcome)


def test_merged_view_is_union_of_host_views():
    kernel, net, world, elements = quorum_world(members=3, replica_lag=0.2)
    ws = QuorumGrowOnlySet(world, CLIENT, "coll")

    def proc():
        # add a member; replicas lag, but the quorum read includes the
        # primary, whose view has it
        e = yield from ws.repo.add("coll", "zz-new", value="N", home="s2")
        result = yield from ws.elements().drain()
        return e, result

    e, result = kernel.run_process(proc())
    assert e in result.elements


def test_sees_growth_during_run():
    kernel, net, world, elements = quorum_world(members=3)
    ws = QuorumGrowOnlySet(world, CLIENT, "coll")
    iterator = ws.elements()

    def proc():
        first = yield from iterator.invoke()
        late = yield from ws.repo.add("coll", "zz-late", value="L")
        yield Sleep(1.0)   # one anti-entropy round
        rest = yield from iterator.drain()
        return late, [first.element] + rest.elements

    late, got = kernel.run_process(proc())
    assert late in got


@pytest.mark.parametrize("build, asked", [
    (lambda: quorum_world(),
     [("s0", "coll"), ("s1", "coll"), ("s2", "coll")]),
    (lambda: sharded_world(n_shards=2, mirrors=2, policy="grow-only"),
     [("s0", "coll"), ("m0", "coll@s0"), ("m1", "coll@s0"),
      ("s1", "coll"), ("m0", "coll@s1"), ("m1", "coll@s1")]),
], ids=["classic-2-replicas", "sharded-2-mirrors"])
def test_one_read_asks_each_partition_copy_in_order(monkeypatch, build, asked):
    """One ``list_members`` per copy of each partition, the partition's
    own node first: a classic collection is the one-partition case."""
    kernel, net, world, _ = build()
    calls = []
    call = Repository._call

    def recording_call(repo, host, method, *args, **kwargs):
        if method == "list_members":
            calls.append((host, *args))
        return call(repo, host, method, *args, **kwargs)

    monkeypatch.setattr(Repository, "_call", recording_call)
    ws = QuorumGrowOnlySet(world, CLIENT, "coll")
    outcome = kernel.run_process(ws.elements().invoke())
    assert isinstance(outcome, Returned)
    assert calls == asked


# ---------------------------------------------------------------------------
# Sharded collections: per-shard majorities
# ---------------------------------------------------------------------------

def test_sharded_quorum_reads_union_of_per_shard_majorities():
    # Members homed on mirror-free nodes so crashing a shard server
    # only costs its *registry* copy, not the data objects themselves.
    kernel, net, world, _ = sharded_world(policy="grow-only", mirrors=2)
    elements = [world.seed_member("coll", f"q{i}", value=i, home="m0")
                for i in range(8)]
    # One shard server down: its range still musters a majority from
    # the two mirrors (2 of 3 copies), so the read covers every range.
    net.crash("s1")
    ws = QuorumGrowOnlySet(world, CLIENT, "coll")
    result = drain_all(kernel, ws)
    assert isinstance(result.outcome, Returned)
    assert frozenset(result.elements) == frozenset(elements)
    report = check_conformance(ws.last_trace, spec_by_id("fig5"), world)
    assert report.conformant, report.counterexample()


def test_sharded_quorum_fails_when_one_range_lacks_majority():
    kernel, net, world, _ = sharded_world(policy="grow-only", mirrors=2)
    for i in range(8):
        world.seed_member("coll", f"q{i}", value=i, home="m0")
    # A shard *and* a mirror down leaves that range with 1 of 3 copies:
    # no majority for the range means the whole read must fail — a
    # partial union would silently drop the range's members.
    net.crash("s1")
    net.crash("m0")
    ws = QuorumGrowOnlySet(world, CLIENT, "coll")
    result = drain_all(kernel, ws)
    assert result.failed
    assert result.elements == []
