"""GrowOnlySet (Figure 5) and the §3.3 per-run ghost protocol."""


from repro.errors import MutationNotAllowed
from repro.spec import Failed, Returned, check_conformance, spec_by_id
from repro.weaksets import GrowOnlySet, PerRunGrowOnlySet

from helpers import CLIENT, PRIMARY, drain_all, standard_world


def test_yields_everything_on_quiet_world():
    kernel, net, world, elements = standard_world(members=6, policy="grow-only")
    ws = GrowOnlySet(world, CLIENT, "coll")
    result = drain_all(kernel, ws)
    assert frozenset(result.elements) == frozenset(elements)
    assert isinstance(result.outcome, Returned)
    report = check_conformance(ws.last_trace, spec_by_id("fig5"), world)
    assert report.conformant, report.counterexample()


def test_sees_additions_made_during_the_run():
    """Pre-state basis: unlike Fig 4, growth during the run is yielded."""
    kernel, net, world, elements = standard_world(members=3, policy="grow-only")
    ws = GrowOnlySet(world, CLIENT, "coll")
    iterator = ws.elements()

    def proc():
        first = yield from iterator.invoke()
        late = yield from ws.repo.add("coll", "zz-late", value="L")
        rest = yield from iterator.drain()
        return late, [first.element] + rest.elements

    late, got = kernel.run_process(proc())
    assert late in got                         # the addition was seen
    assert len(got) == 4
    report = check_conformance(ws.last_trace, spec_by_id("fig5"), world)
    assert report.conformant, report.counterexample()


def test_fails_pessimistically_when_member_unreachable():
    kernel, net, world, elements = standard_world(
        n_servers=4, members=8, policy="grow-only")
    net.split([CLIENT, "s0", "s2", "s3"], ["s1"])
    ws = GrowOnlySet(world, CLIENT, "coll")
    result = drain_all(kernel, ws)
    assert result.failed
    # everything reachable was yielded before failing
    reachable = {e for e in elements if e.home != "s1"}
    assert frozenset(result.elements) == reachable
    report = check_conformance(ws.last_trace, spec_by_id("fig5"), world)
    assert report.conformant, report.counterexample()


def test_fails_when_primary_unreachable_mid_run():
    kernel, net, world, elements = standard_world(members=4, policy="grow-only")
    ws = GrowOnlySet(world, CLIENT, "coll")
    iterator = ws.elements()

    def proc():
        yield from iterator.invoke()
        net.isolate(PRIMARY)                 # s_pre read now impossible
        return (yield from iterator.invoke())

    outcome = kernel.run_process(proc())
    assert isinstance(outcome, Failed)


def test_remove_rejected_by_policy():
    kernel, net, world, elements = standard_world(members=2, policy="grow-only")
    ws = GrowOnlySet(world, CLIENT, "coll")

    def proc():
        try:
            yield from ws.remove(elements[0])
        except MutationNotAllowed:
            return "rejected"

    assert kernel.run_process(proc()) == "rejected"


def test_grow_only_constraint_holds_on_history():
    kernel, net, world, elements = standard_world(members=2, policy="grow-only")
    ws = GrowOnlySet(world, CLIENT, "coll")

    def proc():
        yield from ws.add("new1", value=1)
        yield from ws.add("new2", value=2)

    kernel.run_process(proc())
    history = world.membership_history("coll")
    assert spec_by_id("fig5").constraint.check(history) == []


# ---------------------------------------------------------------------------
# §3.3 ghost protocol (grow-during-run)
# ---------------------------------------------------------------------------

def test_ghost_protocol_defers_removal_during_run():
    kernel, net, world, elements = standard_world(
        members=4, policy="grow-during-run")
    ws = PerRunGrowOnlySet(world, CLIENT, "coll")
    iterator = ws.elements()

    def proc():
        first = yield from iterator.invoke()      # registers the run
        victim = next(e for e in elements if e != first.element)
        yield from ws.repo.remove("coll", victim)  # becomes a ghost
        assert victim in world.true_members("coll")
        rest = yield from iterator.drain()
        return victim, [first.element] + rest.elements

    victim, got = kernel.run_process(proc())
    # the removed member was still yielded (the run only saw growth)...
    assert victim in got
    # ...and was purged once the run ended
    assert victim not in world.true_members("coll")


def test_ghost_purge_waits_for_last_iteration():
    kernel, net, world, elements = standard_world(
        members=3, policy="grow-during-run")
    ws1 = PerRunGrowOnlySet(world, CLIENT, "coll")
    ws2 = PerRunGrowOnlySet(world, "s2", "coll")
    it1, it2 = ws1.elements(), ws2.elements()

    def proc():
        yield from it1.invoke()
        yield from it2.invoke()
        yield from ws1.repo.remove("coll", elements[0])   # ghost now
        r1 = yield from it1.drain()                       # first run ends
        assert elements[0] in world.true_members("coll")  # it2 still active
        r2 = yield from it2.drain()                       # last run ends
        return r1, r2

    kernel.run_process(proc())
    assert elements[0] not in world.true_members("coll")  # purged


def test_per_run_grow_only_constraint_holds_during_runs():
    kernel, net, world, elements = standard_world(
        members=4, policy="grow-during-run")
    ws = PerRunGrowOnlySet(world, CLIENT, "coll")
    iterator = ws.elements()

    def proc():
        yield from iterator.invoke()
        yield from ws.repo.remove("coll", elements[2])
        yield from ws.add("fresh", value="F")
        yield from iterator.drain()

    kernel.run_process(proc())
    report = check_conformance(ws.last_trace, spec_by_id("fig5-per-run"), world)
    assert report.constraint_violations == []


def test_removal_between_runs_is_immediate():
    kernel, net, world, elements = standard_world(
        members=3, policy="grow-during-run")
    ws = PerRunGrowOnlySet(world, CLIENT, "coll")
    drain_all(kernel, ws)  # a full run with no active mutations

    def proc():
        yield from ws.repo.remove("coll", elements[0])

    kernel.run_process(proc())
    assert elements[0] not in world.true_members("coll")  # no ghost needed
