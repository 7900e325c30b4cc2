"""ImmutableSet (Fig 3), Figure1Set (Fig 1), PerRunImmutableSet (§3.1)."""


from repro.errors import MutationNotAllowed
from repro.sim import Sleep
from repro.spec import Returned, check_conformance, spec_by_id
import pytest

from repro.weaksets import (
    Figure1Set,
    ImmutableSet,
    PerRunImmutableSet,
    StrongSet,
    install_lock_services,
)

from helpers import CLIENT, drain_all, sharded_world, standard_world


def immutable_world(**kwargs):
    kernel, net, world, elements = standard_world(policy="immutable", **kwargs)
    world.seal("coll")
    return kernel, net, world, elements


def test_iterates_sealed_collection():
    kernel, net, world, elements = immutable_world(members=5)
    ws = ImmutableSet(world, CLIENT, "coll")
    result = drain_all(kernel, ws)
    assert frozenset(result.elements) == frozenset(elements)
    report = check_conformance(ws.last_trace, spec_by_id("fig3"), world)
    assert report.conformant, report.counterexample()


def test_conforms_to_fig3_under_transient_failures():
    kernel, net, world, elements = immutable_world(n_servers=3, members=6)
    ws = ImmutableSet(world, CLIENT, "coll")
    iterator = ws.elements()

    def proc():
        first = yield from iterator.invoke()
        net.isolate("s1")                     # two members become unreachable
        mid = yield from iterator.drain(max_yields=3)
        net.rejoin("s1")                      # repaired: rest reachable again
        rest = yield from iterator.drain()
        return [first.element] + mid.elements + rest.elements, rest.outcome

    got, outcome = kernel.run_process(proc())
    assert isinstance(outcome, Returned)
    assert frozenset(got) == frozenset(elements)
    report = check_conformance(ws.last_trace, spec_by_id("fig3"), world)
    assert report.conformant, report.counterexample()


def test_fails_when_members_permanently_unreachable():
    kernel, net, world, elements = immutable_world(n_servers=3, members=6)
    net.crash("s2")
    ws = ImmutableSet(world, CLIENT, "coll")
    result = drain_all(kernel, ws)
    assert result.failed
    report = check_conformance(ws.last_trace, spec_by_id("fig3"), world)
    assert report.conformant, report.counterexample()


def test_mutation_rejected_so_constraint_cannot_break():
    kernel, net, world, elements = immutable_world(members=2)
    ws = ImmutableSet(world, CLIENT, "coll")

    def proc():
        try:
            yield from ws.add("new")
        except MutationNotAllowed:
            return "rejected"

    assert kernel.run_process(proc()) == "rejected"
    # an iteration after the rejected mutation is fully conformant —
    # the set's value (post-seal) never changed
    drain_all(kernel, ws)
    report = check_conformance(ws.last_trace, spec_by_id("fig3"), world)
    assert report.conformant, report.counterexample()


# ---------------------------------------------------------------------------
# Figure 1 (failure-blind)
# ---------------------------------------------------------------------------

def test_fig1_conforms_in_failure_free_world():
    kernel, net, world, elements = immutable_world(members=5)
    ws = Figure1Set(world, CLIENT, "coll")
    result = drain_all(kernel, ws)
    assert frozenset(result.elements) == frozenset(elements)
    report = check_conformance(ws.last_trace, spec_by_id("fig1"), world)
    assert report.conformant, report.counterexample()
    # in a failure-free world it also conforms to fig3
    report3 = check_conformance(ws.last_trace, spec_by_id("fig3"), world)
    assert report3.conformant, report3.counterexample()


def test_fig1_iterator_yields_unreachable_elements_under_failures():
    """The deficiency that motivated `reachable`: Figure 1's iterator,
    blind to failures, happily yields elements nobody can access —
    violating Figure 3."""
    kernel, net, world, elements = immutable_world(n_servers=3, members=6)
    net.crash("s1")
    ws = Figure1Set(world, CLIENT, "coll")
    result = drain_all(kernel, ws)
    assert not result.failed
    assert frozenset(result.elements) == frozenset(elements)  # including s1's!
    report3 = check_conformance(ws.last_trace, spec_by_id("fig3"), world)
    assert not report3.conformant
    assert report3.ensures_violations


# ---------------------------------------------------------------------------
# §3.1 per-run immutability via read locks
# ---------------------------------------------------------------------------

def test_per_run_immutable_blocks_writers_during_run():
    kernel, net, world, elements = standard_world(members=4, with_locks=True)
    reader = PerRunImmutableSet(world, CLIENT, "coll")
    writer = StrongSet(world, "s2", "coll")
    iterator = reader.elements()
    events = []

    def read_side():
        first = yield from iterator.invoke()
        events.append(("yield", world.now))
        yield Sleep(2.0)                       # slow (human) consumer
        rest = yield from iterator.drain()
        events.append(("done", world.now))
        return [first.element] + rest.elements

    def write_side():
        yield Sleep(0.5)                       # arrive mid-run
        yield from writer.add("intruder", value="X")
        events.append(("write", world.now))

    read_proc = kernel.spawn(read_side())
    kernel.spawn(write_side())
    kernel.run(until=30.0)
    got = read_proc.result
    # the write landed only after the reader's run finished
    order = [kind for kind, _ in sorted(events, key=lambda ev: ev[1])]
    assert order == ["yield", "done", "write"]
    assert frozenset(got) == frozenset(elements)  # no intruder mid-run


def test_per_run_immutable_allows_mutation_between_runs():
    kernel, net, world, elements = standard_world(members=2, with_locks=True)
    ws = PerRunImmutableSet(world, CLIENT, "coll")
    r1 = drain_all(kernel, ws)

    def mutate():
        yield from ws.repo.add("coll", "between", value="B")

    kernel.run_process(mutate())
    r2 = drain_all(kernel, ws)
    assert len(r2.elements) == len(r1.elements) + 1


@pytest.mark.parametrize("cls", [PerRunImmutableSet, StrongSet],
                         ids=lambda c: c.impl_name)
def test_a_failed_first_membership_read_releases_the_reachable_locks(cls):
    """Both shards grant their read lock, then ``s1`` is cut off before
    the scatter read answers: the run fails — and must end.  ``s0`` was
    reachable throughout, so its lock comes back; with no lease a leaked
    one would park every ``StrongSet`` writer forever.  ``s1``'s cannot
    be released by a client that cannot reach it (§3.1's hazard, by
    design)."""
    kernel, net, world, _ = sharded_world(n_shards=2, members=4)
    services = install_lock_services(world, "coll")
    ws = cls(world, CLIENT, "coll", rpc_timeout=0.5)
    iterator = ws.elements()
    proc = kernel.spawn(iterator.drain())
    kernel.run(until=0.045)              # after both grants, read in flight
    assert [len(services[n].holders("coll")) for n in ("s0", "s1")] == [1, 1]
    net.isolate("s1")
    kernel.run(until=5.0)
    net.rejoin("s1")
    kernel.run(until=20.0)
    result = proc.result
    assert result.failed and not result.yields
    assert "client and s1 are in different partitions" in str(result.outcome)
    assert services["s0"].holders("coll") == []
    assert len(services["s1"].holders("coll")) == 1
