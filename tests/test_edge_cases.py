"""Edge cases across components: abandonment, first-state ambiguity,
client crashes, long-horizon workload drift."""


from repro.errors import IteratorProtocolError, SimulationError
from repro.sim import Sleep
from repro.spec import (
    Returned,
    Yielded,
    check_conformance,
    spec_by_id,
)
from repro.spec.state import InvocationRecord, StateSnapshot
from repro.spec.trace import IterationTrace
from repro.store import Element
from repro.weaksets import DynamicSet

from helpers import CLIENT, rotate_menu, standard_world


# ---------------------------------------------------------------------------
# abandonment
# ---------------------------------------------------------------------------

def test_abandoned_iterator_stops_recording():
    kernel, net, world, elements = standard_world(members=5)
    ws = DynamicSet(world, CLIENT, "coll")
    iterator = ws.elements()

    def proc():
        yield from iterator.invoke()
        yield from iterator.invoke()
        iterator.abandon()
        # further world changes must not extend the trace
        yield from ws.repo.add("coll", "after-abandon", value="X")
        return len(ws.last_trace.invocations)

    count = kernel.run_process(proc())
    assert count == 2
    assert iterator.terminated

    def proc2():
        try:
            yield from iterator.invoke()
        except IteratorProtocolError:
            return "rejected"

    assert kernel.run_process(proc2()) == "rejected"


def test_partial_trace_is_checkable():
    kernel, net, world, elements = standard_world(members=5)
    ws = DynamicSet(world, CLIENT, "coll")
    iterator = ws.elements()

    def proc():
        yield from iterator.invoke()
        yield from iterator.invoke()
        iterator.abandon()

    kernel.run_process(proc())
    trace = ws.last_trace
    assert not trace.terminated
    report = check_conformance(trace, spec_by_id("fig6"), world)
    assert report.conformant, report.counterexample()


# ---------------------------------------------------------------------------
# first-state ambiguity: the checker must pick the right candidate
# ---------------------------------------------------------------------------

def elem(name):
    return Element(name=name, oid=f"oid-{name}", home="s0")


A, B = elem("a"), elem("b")
REACH = frozenset({"client", "s0"})


def test_checker_fixes_s_first_existentially():
    """Invocation 0's window saw both {A} and {A,B}; the subsequent
    yields cover {A,B}, so only the second candidate works — the trace
    must still conform."""
    trace = IterationTrace(coll_id="c", client="client", impl_name="manual")
    snap_small = StateSnapshot(0.0, frozenset({A}), REACH)
    snap_big = StateSnapshot(0.2, frozenset({A, B}), REACH)
    trace.invocations.append(InvocationRecord(
        index=0, t_invoke=0.0, t_complete=0.3,
        yielded_pre=frozenset(), yielded_post=frozenset({A}),
        outcome=Yielded(A), snapshots=(snap_small, snap_big)))
    trace.first_candidates = (snap_small, snap_big)
    snap_later = StateSnapshot(1.0, frozenset({A, B}), REACH)
    trace.invocations.append(InvocationRecord(
        index=1, t_invoke=1.0, t_complete=1.1,
        yielded_pre=frozenset({A}), yielded_post=frozenset({A, B}),
        outcome=Yielded(B), snapshots=(snap_later,)))
    trace.invocations.append(InvocationRecord(
        index=2, t_invoke=2.0, t_complete=2.1,
        yielded_pre=frozenset({A, B}), yielded_post=frozenset({A, B}),
        outcome=Returned(), snapshots=(snap_later,)))
    history = [(0.0, frozenset({A})), (0.2, frozenset({A, B}))]
    report = check_conformance(trace, spec_by_id("fig4"), history=history)
    assert report.conformant, report.counterexample()


def test_checker_rejects_when_no_candidate_fits():
    """Yields exceed every candidate s_first: a genuine violation."""
    ghost = elem("ghost")
    trace = IterationTrace(coll_id="c", client="client", impl_name="manual")
    snap = StateSnapshot(0.0, frozenset({A}), REACH)
    trace.invocations.append(InvocationRecord(
        index=0, t_invoke=0.0, t_complete=0.1,
        yielded_pre=frozenset(), yielded_post=frozenset({ghost}),
        outcome=Yielded(ghost), snapshots=(snap,)))
    trace.first_candidates = (snap,)
    history = [(0.0, frozenset({A}))]
    report = check_conformance(trace, spec_by_id("fig4"), history=history)
    assert not report.conformant


# ---------------------------------------------------------------------------
# client crash mid-iteration
# ---------------------------------------------------------------------------

def test_client_crash_parks_optimistic_query():
    """A crashed client's optimistic query becomes a harmless zombie:
    it can reach nothing (a crashed observer reaches no nodes), so it
    parks in the retry loop, makes no progress, and resumes when the
    client recovers."""
    kernel, net, world, elements = standard_world(members=5)
    ws = DynamicSet(world, CLIENT, "coll", retry_interval=0.25)
    iterator = ws.elements()

    def query():
        return (yield from iterator.drain())

    def crash_then_recover():
        # Crash while the first fetches are still in flight (the batched
        # pipeline finishes a 5-member drain well under 50ms, so the
        # crash must land before the first value arrives).
        yield Sleep(0.03)
        net.crash(CLIENT)
        yield Sleep(8.0)
        net.recover(CLIENT)

    proc = kernel.spawn(query())
    kernel.spawn(crash_then_recover(), daemon=True)
    kernel.run(until=6.0)
    assert not proc.finished                      # parked, not crashed
    yielded_while_dead = len(iterator.yielded)
    kernel.run(until=30.0)
    assert proc.finished and proc.error is None   # resumed after recovery
    assert len(proc.result.elements) == 5
    assert len(iterator.yielded) > yielded_while_dead


def test_strong_query_fails_fast_when_client_crashes():
    """The strong iterator's next RPC from a crashed caller raises: its
    process dies with a simulation error instead of spinning."""
    from repro.weaksets import StrongSet
    kernel, net, world, elements = standard_world(
        members=8, with_locks=True, service_time=0.05)
    ws = StrongSet(world, CLIENT, "coll")
    iterator = ws.elements()

    def query():
        return (yield from iterator.drain())

    def crasher():
        yield Sleep(0.2)                           # mid-prefetch
        net.crash(CLIENT)

    proc = kernel.spawn(query())
    kernel.spawn(crasher(), daemon=True)
    kernel.run(until=30.0)
    assert proc.finished
    assert isinstance(proc.error, SimulationError)


# ---------------------------------------------------------------------------
# long-horizon workload drift
# ---------------------------------------------------------------------------

def test_menu_seasons_drift_over_time():
    """Menus 'change weekly or seasonally': repeated queries over a long
    horizon observe monotonically advancing seasons."""
    from repro.wan import build_restaurants

    wl = build_restaurants(seed=8, n_restaurants=12)

    def season_census():
        result = yield from wl.guide("dynamic").elements().drain()
        return sorted(v.season for v in result.values)

    def rotate_some(k):
        current = sorted(wl.world.true_members("pgh-restaurants"),
                         key=lambda e: e.name)
        for e in current[:k]:
            yield from rotate_menu(wl, e)

    first = wl.kernel.run_process(season_census())
    wl.kernel.run_process(rotate_some(5))
    second = wl.kernel.run_process(season_census())
    assert first == [0] * 12
    assert second.count(1) == 5
    assert len(second) == 12            # same restaurants, fresher menus
