"""Tests for the dynamic-sets prefetcher: the setOpen/setIterate/setClose
API over ``DynamicSet.elements()``, whose pipeline does the fetching."""


from repro.dynsets import set_open
from repro.net import FixedLatency, Network, wan_clusters
from repro.sim import Kernel, Sleep
from repro.spec import Failed
from repro.store import Repository, World

from helpers import CLIENT, standard_world


def drain_set(kernel, world, client=CLIENT, coll_id="coll", **kwargs):
    """Open, drain and close a dynamic set; returns (handle, delivered)."""
    def proc():
        handle = yield from set_open(world, client, coll_id, **kwargs)
        delivered = yield from handle.iterate_all()
        handle.close()
        return handle, delivered

    return kernel.run_process(proc())


def test_prefetch_fetches_everything():
    kernel, net, world, elements = standard_world(members=8)
    handle, results = drain_set(kernel, world, parallelism=4)
    assert len(results) == len(elements)
    assert all(r.ok for r in results)
    assert {r.element for r in results} == set(elements)
    assert handle.audit().conformant


def test_parallelism_speeds_up_fetching():
    def run(parallelism):
        kernel, net, world, elements = standard_world(
            members=12, service_time=0.05)
        drain_set(kernel, world, parallelism=parallelism)
        return kernel.now

    sequential = run(1)
    parallel = run(6)
    assert parallel < sequential / 2  # near-linear speedup at this scale


def test_closest_first_ordering():
    kernel = Kernel()
    topo = wan_clusters([3, 3], FixedLatency(0.002), FixedLatency(0.3))
    net = Network(kernel, topo)
    world = World(net)
    world.create_collection("c", primary="n0.0")
    far = world.seed_member("c", "far", value=2, home="n1.1")
    near = world.seed_member("c", "near", value=1, home="n0.1")
    _, results = drain_set(kernel, world, "n0.2", "c", parallelism=1)
    assert [r.element for r in results] == [near, far]


def test_retry_recovers_after_heal():
    kernel, net, world, elements = standard_world(n_servers=3, members=6)
    net.isolate("s1")

    def healer():
        yield Sleep(2.0)
        net.heal()

    kernel.spawn(healer(), daemon=True)
    handle, results = drain_set(kernel, world, parallelism=3,
                                retry_interval=0.2)
    assert all(r.ok for r in results)
    assert len(results) == 6
    assert kernel.now >= 2.0
    assert handle.iterator.retries > 0           # it blocked, then resumed
    assert handle.audit().conformant


def test_give_up_reports_unreachable():
    kernel, net, world, elements = standard_world(n_servers=3, members=6)
    net.crash("s1")
    handle, delivered = drain_set(kernel, world, parallelism=3,
                                  retry_interval=0.2, give_up_after=1.5)
    results = handle.results
    assert len(results) == 6
    ok = [r for r in results if r.ok]
    gave_up = [r for r in results if r.unreachable]
    assert {r.element.home for r in gave_up} == {"s1"}
    assert len(ok) == 4 and ok == delivered
    assert isinstance(handle.outcome, Failed)


def test_skipped_for_removed_members():
    kernel, net, world, elements = standard_world(members=4)
    repo = Repository(world, CLIENT)

    def proc():
        handle = yield from set_open(world, CLIENT, "coll", parallelism=1)
        first = yield from handle.iterate()
        # the set's view is now stale: m003 goes before its fetch is issued
        yield from repo.remove("coll", elements[3])
        rest = yield from handle.iterate_all()
        handle.close()
        return handle, [first, *rest]

    handle, results = kernel.run_process(proc())
    assert [r.element for r in results] == elements[:3]
    assert handle.iterator.stale_entries == {elements[3]}
    assert handle.iterator.pipeline.gone == 1
    assert handle.audit().conformant


def test_a_member_added_while_the_set_is_open_is_delivered():
    """Figure 6 returns only when nothing of s_pre is left."""
    kernel, net, world, elements = standard_world(members=6, service_time=0.05)

    def writer():
        yield Sleep(0.03)
        yield from Repository(world, "s0").add("coll", "late", "v", "s1")

    kernel.spawn(writer(), daemon=True)
    handle, results = drain_set(kernel, world, parallelism=1)
    assert sorted(r.element.name for r in results) == [
        "late", *(e.name for e in elements)]
    assert handle.audit().conformant


def test_a_member_removed_while_buffered_is_not_delivered():
    """A yield is in reachable(s_pre): a prefetched value does not
    outlive its member."""
    kernel, net, world, elements = standard_world(members=4)

    def proc():
        handle = yield from set_open(world, CLIENT, "coll", parallelism=4)
        first = yield from handle.iterate()
        yield Sleep(1.0)
        yield from Repository(world, CLIENT).remove("coll", elements[3])
        rest = yield from handle.iterate_all()
        handle.close()
        return handle, [first, *rest]

    handle, results = kernel.run_process(proc())
    assert [r.element.name for r in results] == ["m000", "m001", "m002"]
    assert handle.audit().conformant


# ---------------------------------------------------------------------------
# setOpen / setIterate / setClose
# ---------------------------------------------------------------------------

def test_set_open_iterate_close():
    kernel, net, world, elements = standard_world(members=5)

    def proc():
        handle = yield from set_open(world, CLIENT, "coll", parallelism=3)
        got = yield from handle.iterate_all()
        handle.close()
        return handle, got

    handle, got = kernel.run_process(proc())
    assert {r.element for r in got} == set(elements)
    assert handle.time_to_first is not None
    assert handle.time_to_first < 0.2


def test_early_close_stops_workers():
    kernel, net, world, elements = standard_world(members=20, service_time=0.05)

    def proc():
        handle = yield from set_open(world, CLIENT, "coll", parallelism=2)
        first_three = yield from handle.iterate_all(limit=3)
        handle.close()   # user found what they wanted
        return len(first_three), kernel.now

    count, t = kernel.run_process(proc())
    assert count == 3
    # closing early means we did not pay for all 20 fetches
    assert t < 1.0


def test_set_open_batches_same_home_fetches():
    kernel, net, world, elements = standard_world(n_servers=2, members=8)

    def proc():
        handle = yield from set_open(world, CLIENT, "coll", parallelism=8,
                                     batch_size=4)
        got = yield from handle.iterate_all()
        handle.close()
        return got

    got = kernel.run_process(proc())
    assert {r.element for r in got} == set(elements)
    metrics = kernel.obs.metrics
    assert metrics.value("fetch.batch.coalesced") > 0
    assert metrics.value("fetch.batch.calls") < len(elements)


def test_iterate_after_close_is_error():
    from repro.errors import SimulationError
    kernel, net, world, elements = standard_world(members=2)

    def proc():
        handle = yield from set_open(world, CLIENT, "coll")
        handle.close()
        try:
            yield from handle.iterate()
        except SimulationError:
            return "rejected"

    assert kernel.run_process(proc()) == "rejected"


def test_a_set_that_never_answers_fails_the_iteration():
    from repro.errors import FailureException
    kernel, net, world, elements = standard_world(members=2)
    net.crash("s0")          # the only host of the membership

    def proc():
        handle = yield from set_open(world, CLIENT, "coll", give_up_after=1.0)
        try:
            yield from handle.iterate()
        except FailureException:
            return handle, kernel.now

    handle, failed_at = kernel.run_process(proc())
    assert failed_at >= 1.0 and isinstance(handle.outcome, Failed)
    assert handle.results == []


def test_streaming_first_result_before_total_completion():
    kernel, net, world, elements = standard_world(members=10, service_time=0.05)

    def proc():
        handle = yield from set_open(world, CLIENT, "coll", parallelism=2)
        yield from handle.iterate()
        t_first = kernel.now
        rest = yield from handle.iterate_all()
        return t_first, kernel.now, 1 + len(rest)

    t_first, t_all, count = kernel.run_process(proc())
    assert count == 10
    assert t_first < t_all / 2.5   # partial info well before completion
