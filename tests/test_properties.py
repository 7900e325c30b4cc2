"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.net import FixedLatency, Topology
from repro.spec import (
    Returned,
    Yielded,
    check_conformance,
    spec_by_id,
    structural_violations,
)
from repro.spec.state import InvocationRecord, StateSnapshot
from repro.spec.trace import IterationTrace
from repro.store import Element
from repro.weaksets import DynamicSet, GrowOnlySet, SnapshotSet

from helpers import CLIENT, drain_all, standard_world


# ---------------------------------------------------------------------------
# kernel determinism
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_simulation_is_deterministic_per_seed(seed):
    def run():
        kernel, net, world, elements = standard_world(members=6, seed=seed)
        ws = DynamicSet(world, CLIENT, "coll")
        result = drain_all(kernel, ws)
        return [e.name for e in result.elements], kernel.now

    assert run() == run()


# ---------------------------------------------------------------------------
# routing optimality
# ---------------------------------------------------------------------------

@st.composite
def random_topology(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    nodes = [f"n{i}" for i in range(n)]
    topo = Topology()
    for node in nodes:
        topo.add_node(node)
    pairs = list(itertools.combinations(nodes, 2))
    latencies = {}
    for a, b in pairs:
        if draw(st.booleans()):
            w = draw(st.floats(min_value=0.001, max_value=1.0,
                               allow_nan=False, allow_infinity=False))
            topo.add_link(a, b, FixedLatency(w))
            latencies[frozenset((a, b))] = w
    return topo, nodes, latencies


@given(random_topology())
@settings(max_examples=40, deadline=None)
def test_dijkstra_matches_brute_force(data):
    topo, nodes, latencies = data

    def brute_force(src, dst):
        best = None
        for k in range(len(nodes)):
            for mid in itertools.permutations([n for n in nodes
                                               if n not in (src, dst)], k):
                path = [src, *mid, dst]
                cost = 0.0
                ok = True
                for a, b in zip(path, path[1:]):
                    w = latencies.get(frozenset((a, b)))
                    if w is None:
                        ok = False
                        break
                    cost += w
                if ok and (best is None or cost < best):
                    best = cost
        return best

    src, dst = nodes[0], nodes[-1]
    expected = brute_force(src, dst)
    path = topo.route(src, dst)
    got = None if path is None else sum(lk.latency.expected() for lk in path)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert abs(got - expected) < 1e-9


# ---------------------------------------------------------------------------
# iterator invariants over random worlds
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=9999),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=20, deadline=None)
def test_no_duplicates_and_full_coverage_on_quiet_world(seed, members):
    kernel, net, world, elements = standard_world(members=members, seed=seed)
    ws = DynamicSet(world, CLIENT, "coll")
    result = drain_all(kernel, ws)
    names = [e.name for e in result.elements]
    assert len(names) == len(set(names))          # no duplicates
    assert frozenset(result.elements) == frozenset(elements)
    assert isinstance(result.outcome, Returned)


@given(st.integers(min_value=0, max_value=9999))
@settings(max_examples=15, deadline=None)
def test_conformance_implication_fig3_implies_fig4(seed):
    """Figs 3 and 4 share their ensures clause; fig3's constraint is
    strictly stronger, so fig3-conformance implies fig4-conformance."""
    kernel, net, world, elements = standard_world(
        members=5, seed=seed, policy="immutable")
    world.seal("coll")
    ws = SnapshotSet(world, CLIENT, "coll")
    drain_all(kernel, ws)
    fig3 = check_conformance(ws.last_trace, spec_by_id("fig3"), world)
    fig4 = check_conformance(ws.last_trace, spec_by_id("fig4"), world)
    if fig3.conformant:
        assert fig4.conformant


@given(st.integers(min_value=0, max_value=9999))
@settings(max_examples=10, deadline=None)
def test_grow_only_yield_stream_is_monotone_under_growth(seed):
    kernel, net, world, elements = standard_world(
        members=4, seed=seed, policy="grow-only")
    ws = GrowOnlySet(world, CLIENT, "coll")
    iterator = ws.elements()

    def proc():
        yielded = set()
        adds = 0
        while True:
            outcome = yield from iterator.invoke()
            if not outcome.suspends:
                return yielded
            assert outcome.element not in yielded
            yielded.add(outcome.element)
            if adds < 2:
                adds += 1
                yield from ws.repo.add("coll", f"zz-{adds}", value=adds)

    yielded = kernel.run_process(proc())
    assert len(yielded) == 6  # 4 initial + 2 added mid-run


# ---------------------------------------------------------------------------
# structural trace fuzzing
# ---------------------------------------------------------------------------

def _elem(i):
    return Element(name=f"e{i}", oid=f"oid{i}", home="s0")


@st.composite
def valid_trace(draw):
    """A structurally valid trace: yields distinct elements then returns."""
    n = draw(st.integers(min_value=0, max_value=6))
    members = frozenset(_elem(i) for i in range(n))
    trace = IterationTrace(coll_id="c", client="client", impl_name="fuzz")
    yielded = frozenset()
    t = 0.0
    for i in range(n):
        e = _elem(i)
        snap = StateSnapshot(time=t, members=members,
                             reachable_nodes=frozenset({"client", "s0"}))
        trace.invocations.append(InvocationRecord(
            index=i, t_invoke=t, t_complete=t + 0.1,
            yielded_pre=yielded, yielded_post=yielded | {e},
            outcome=Yielded(e), snapshots=(snap,),
        ))
        yielded = yielded | {e}
        t += 1.0
    snap = StateSnapshot(time=t, members=members,
                         reachable_nodes=frozenset({"client", "s0"}))
    trace.invocations.append(InvocationRecord(
        index=n, t_invoke=t, t_complete=t + 0.1,
        yielded_pre=yielded, yielded_post=yielded,
        outcome=Returned(), snapshots=(snap,),
    ))
    if trace.invocations:
        trace.first_candidates = trace.invocations[0].snapshots
    return trace


@given(valid_trace())
@settings(max_examples=30, deadline=None)
def test_valid_traces_have_no_structural_violations(trace):
    assert structural_violations(trace) == []
    # and they satisfy fig1/fig3 (immutable, fully reachable world)
    history = [(0.0, trace.invocations[0].snapshots[0].members)]
    for spec_id in ["fig1", "fig3", "fig4", "fig5", "fig6"]:
        report = check_conformance(trace, spec_by_id(spec_id), history=history)
        assert report.conformant, (spec_id, report.counterexample())


@given(valid_trace(), st.integers(min_value=0, max_value=100))
@settings(max_examples=30, deadline=None)
def test_corrupted_traces_are_detected(trace, pick):
    yield_invs = [inv for inv in trace.invocations if inv.outcome.suspends]
    if not yield_invs:
        return
    victim = yield_invs[pick % len(yield_invs)]
    # corruption: claim the history object did not grow
    trace.invocations[victim.index] = InvocationRecord(
        index=victim.index, t_invoke=victim.t_invoke,
        t_complete=victim.t_complete,
        yielded_pre=victim.yielded_pre,
        yielded_post=victim.yielded_pre,          # <- broken
        outcome=victim.outcome, snapshots=victim.snapshots,
    )
    assert structural_violations(trace) != []
