"""DynamicSet (Figure 6): optimistic, grow-and-shrink, never fails."""


from repro.sim import Sleep
from repro.spec import Failed, Returned, check_conformance, spec_by_id
from repro.weaksets import DynamicSet

from helpers import CLIENT, drain_all, standard_world


def test_yields_everything_on_quiet_world():
    kernel, net, world, elements = standard_world(members=100)
    ws = DynamicSet(world, CLIENT, "coll")
    result = drain_all(kernel, ws)
    assert frozenset(result.elements) == frozenset(elements)
    assert isinstance(result.outcome, Returned)
    report = check_conformance(ws.last_trace, spec_by_id("fig6"), world)
    assert report.conformant, report.counterexample()


def test_sees_additions_and_tolerates_removals():
    kernel, net, world, elements = standard_world(members=4)
    ws = DynamicSet(world, CLIENT, "coll")
    iterator = ws.elements()

    def proc():
        first = yield from iterator.invoke()
        victim = next(e for e in elements if e != first.element)
        yield from ws.repo.remove("coll", victim)
        late = yield from ws.repo.add("coll", "zz-late", value="L")
        rest = yield from iterator.drain()
        return victim, late, [first.element] + rest.elements

    victim, late, got = kernel.run_process(proc())
    assert late in got                       # addition seen (first-bound)
    assert victim not in got                 # removal respected (home is authoritative)
    report = check_conformance(ws.last_trace, spec_by_id("fig6"), world)
    assert report.conformant, report.counterexample()


def test_blocks_through_partition_and_finishes_after_heal():
    """Optimism: inaccessible members are waited out, not failed."""
    kernel, net, world, elements = standard_world(n_servers=3, members=6)
    ws = DynamicSet(world, CLIENT, "coll", retry_interval=0.2)
    iterator = ws.elements()

    def healer():
        yield Sleep(5.0)
        net.heal()

    def proc():
        first = yield from iterator.invoke()
        net.split([CLIENT, "s0"], ["s1"], ["s2"])  # most homes now unreachable
        rest = yield from iterator.drain()
        return [first.element] + rest.elements, rest.outcome

    kernel.spawn(healer(), daemon=True)
    got, outcome = kernel.run_process(proc())
    assert isinstance(outcome, Returned)          # never failed
    assert frozenset(got) == frozenset(elements)  # everything eventually yielded
    assert iterator.retries > 0                   # it did block and retry
    report = check_conformance(ws.last_trace, spec_by_id("fig6"), world)
    assert report.conformant, report.counterexample()


def test_returns_when_blocked_elements_are_removed():
    """Fig 6's branch condition re-evaluates s_pre: if the members the
    iterator was blocking on are removed (here, right after the
    partition heals, before the next retry), it returns without them."""
    kernel, net, world, elements = standard_world(n_servers=3, members=3)
    ws = DynamicSet(world, CLIENT, "coll", retry_interval=0.5)
    iterator = ws.elements()
    on_s1 = [e for e in elements if e.home == "s1"]
    assert on_s1

    from repro.store import Repository
    primary_repo = Repository(world, "s0")

    def heal_and_remove():
        # Heal between two retry ticks, remove immediately: the iterator's
        # next retry sees the post-removal membership.
        yield Sleep(2.95)
        net.heal()
        for e in on_s1:
            yield from primary_repo.remove("coll", e)

    def proc():
        first = yield from iterator.invoke()
        net.split([CLIENT, "s0", "s2"], ["s1"])   # block on s1's members
        rest = yield from iterator.drain()
        return [first.element] + rest.elements, rest.outcome

    kernel.spawn(heal_and_remove(), daemon=True)
    got, outcome = kernel.run_process(proc())
    assert isinstance(outcome, Returned)
    assert frozenset(got) == frozenset(elements) - frozenset(on_s1)
    report = check_conformance(ws.last_trace, spec_by_id("fig6"), world)
    assert report.conformant, report.counterexample()


def test_give_up_after_bounds_blocking():
    kernel, net, world, elements = standard_world(n_servers=3, members=6)
    ws = DynamicSet(world, CLIENT, "coll", retry_interval=0.2, give_up_after=2.0)
    iterator = ws.elements()

    def proc():
        yield from iterator.invoke()
        net.split([CLIENT, "s0"], ["s1"], ["s2"])
        rest = yield from iterator.drain()
        return rest.outcome

    outcome = kernel.run_process(proc())
    assert isinstance(outcome, Failed)  # the escape hatch, not Fig 6 proper


def test_reads_from_nearest_replica():
    from repro.net import FixedLatency, Network, full_mesh
    from repro.sim import Kernel
    from repro.store import World

    kernel = Kernel()
    topo = full_mesh(["client", "p", "r"], latency_for=lambda a, b: (
        FixedLatency(0.001) if {a, b} == {"client", "r"} else FixedLatency(0.2)
    ))
    net = Network(kernel, topo)
    world = World(net, replica_lag=0.1)
    world.create_collection("c", primary="p", replicas=["r"])
    e = world.seed_member("c", "x", value="X", home="r")
    ws = DynamicSet(world, "client", "c")
    result = drain_all(kernel, ws)
    assert result.elements == [e]
    # 1 membership read via r (fast) + fetch from r (fast) + the
    # final primary confirmation (slow, one RTT ~0.4s): well under the
    # all-primary alternative (3 slow RTTs).
    assert result.total_time < 0.8


def test_weak_guarantee_holds():
    kernel, net, world, elements = standard_world(members=5)
    ws = DynamicSet(world, CLIENT, "coll")
    iterator = ws.elements()

    def proc():
        yield from iterator.invoke()
        yield from ws.repo.add("coll", "during", value="D")
        yield from iterator.drain()

    kernel.run_process(proc())
    report = ws.audit()
    assert report.conformant, report.counterexample()


def test_two_concurrent_queries_may_see_different_sets():
    """'Two people running the same query at the same time may obtain
    different sets of elements.'"""
    kernel, net, world, elements = standard_world(members=4)
    ws_a = DynamicSet(world, CLIENT, "coll")
    ws_b = DynamicSet(world, "s3", "coll")
    it_a, it_b = ws_a.elements(), ws_b.elements()
    results = {}

    def run_a():
        result = yield from it_a.drain()
        results["a"] = frozenset(result.elements)

    def run_b():
        # b starts slightly later: by then a has already yielded m000;
        # b removes it before its own query examines it.
        yield Sleep(0.1)
        victim = next(e for e in elements if e.name == "m000")
        yield from ws_b.repo.remove("coll", victim)
        result = yield from it_b.drain()
        results["b"] = frozenset(result.elements)

    kernel.spawn(run_a())
    kernel.spawn(run_b())
    kernel.run(until=60.0)
    assert results["a"] != results["b"]
    m000 = next(e for e in elements if e.name == "m000")
    assert m000 in results["a"]          # a saw it before the removal
    assert m000 not in results["b"]      # b's overlapping query did not
