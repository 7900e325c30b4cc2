"""Checker internals: reports, history clipping, the weak guarantee."""

import pytest

from repro.spec import (
    ConformanceReport,
    Returned,
    Yielded,
    check_conformance,
    spec_by_id,
)
from repro.spec.constraints import clip_history
from repro.spec.iterspec import SpecViolationDetail
from repro.spec.state import InvocationRecord, StateSnapshot
from repro.spec.trace import IterationTrace
from repro.store import Element

from helpers import check_trace_without_memo


def elem(name):
    return Element(name=name, oid=f"oid-{name}", home="s0")


A, B = elem("a"), elem("b")


def snapshot(t, members, reach_nodes=("client", "s0")):
    return StateSnapshot(time=t, members=frozenset(members),
                         reachable_nodes=frozenset(reach_nodes))


def simple_trace(outcomes):
    """Build a trace from a list of (yielded_pre, outcome, members)."""
    trace = IterationTrace(coll_id="c", client="client", impl_name="manual")
    for i, (pre, outcome, members) in enumerate(outcomes):
        post = pre | {outcome.element} if isinstance(outcome, Yielded) else pre
        trace.invocations.append(InvocationRecord(
            index=i, t_invoke=float(i), t_complete=float(i) + 0.5,
            yielded_pre=frozenset(pre), yielded_post=frozenset(post),
            outcome=outcome, snapshots=(snapshot(float(i), members),),
        ))
    if trace.invocations:
        trace.first_candidates = trace.invocations[0].snapshots
    return trace


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------

def test_report_summary_conformant():
    report = ConformanceReport(spec_id="fig6", impl_name="x")
    assert report.conformant
    assert "CONFORMS" in report.summary()
    assert report.counterexample() is None


def test_report_summary_with_violations():
    report = ConformanceReport(
        spec_id="fig3", impl_name="x",
        ensures_violations=[SpecViolationDetail(2, "boom")],
    )
    assert not report.conformant
    assert "VIOLATES" in report.summary()
    assert "1 ensures" in report.summary()
    assert "boom" in report.counterexample()


# ---------------------------------------------------------------------------
# history clipping
# ---------------------------------------------------------------------------

def test_clip_keeps_value_in_force_at_window_start():
    history = [(0.0, frozenset({A})), (5.0, frozenset({A, B}))]
    clipped = clip_history(history, 2.0, 10.0)
    assert clipped == [(0.0, frozenset({A})), (5.0, frozenset({A, B}))]


def test_clip_excludes_changes_after_window():
    history = [(0.0, frozenset({A})), (5.0, frozenset({A, B}))]
    clipped = clip_history(history, 0.0, 4.0)
    assert clipped == [(0.0, frozenset({A}))]


def test_clip_empty_before_history():
    history = [(3.0, frozenset({A}))]
    assert clip_history(history, 0.0, 1.0) == []


# ---------------------------------------------------------------------------
# weak guarantee: §3.4's "any element yielded must actually be in the set,
# for some state of the set between the first-state and last-state" is
# implied by Figure 6's ensures clause, so the fig6 audit is its judge
# ---------------------------------------------------------------------------

def test_weak_guarantee_accepts_members_of_any_window_state():
    trace = simple_trace([
        (frozenset(), Yielded(A), {A}),
        (frozenset({A}), Yielded(B), {B}),    # A was removed, B added
        (frozenset({A, B}), Returned(), {B}),
    ])
    history = [(0.0, frozenset({A})), (0.9, frozenset({B}))]
    report = check_conformance(trace, spec_by_id("fig6"), history=history)
    assert report.conformant, report.counterexample()


def test_weak_guarantee_flags_never_members():
    ghost = elem("never-a-member")
    trace = simple_trace([
        (frozenset(), Yielded(ghost), {A}),
        (frozenset({ghost}), Returned(), {A}),
    ])
    history = [(0.0, frozenset({A}))]
    report = check_conformance(trace, spec_by_id("fig6"), history=history)
    assert not report.conformant
    assert report.ensures_violations[0].invocation == 0


def test_weak_guarantee_empty_trace():
    trace = IterationTrace(coll_id="c", client="client")
    report = check_conformance(trace, spec_by_id("fig6"), history=[])
    assert report.conformant


def test_trace_with_no_invocations_conforms_to_every_row():
    # No invocation, no window: nothing ran, so nothing is judged — not
    # even under an immutable row over a history that mutates.
    from repro.spec import ALL_FIGURES, RELAXED_VARIANTS
    trace = IterationTrace(coll_id="c", client="client")
    history = [(0.0, frozenset({A})), (1.0, frozenset({B})),
               (2.0, frozenset({A, B})), (3.0, frozenset())]
    for spec in ALL_FIGURES + RELAXED_VARIANTS:
        report = check_conformance(trace, spec, history=history)
        assert report.conformant, (spec.spec_id, report.counterexample())


# ---------------------------------------------------------------------------
# explicit-history checking (no world required)
# ---------------------------------------------------------------------------

def test_check_conformance_with_explicit_history():
    trace = simple_trace([
        (frozenset(), Yielded(A), {A, B}),
        (frozenset({A}), Yielded(B), {A, B}),
        (frozenset({A, B}), Returned(), {A, B}),
    ])
    history = [(0.0, frozenset({A, B}))]
    report = check_conformance(trace, spec_by_id("fig3"), history=history)
    assert report.conformant, report.counterexample()


def test_check_conformance_requires_world_or_history():
    trace = simple_trace([])
    with pytest.raises(ValueError):
        check_conformance(trace, spec_by_id("fig6"))


def returns_early():
    return simple_trace([
        (frozenset(), Yielded(A), {A, B}),
        (frozenset({A}), Returned(), {A, B}),   # B never yielded!
    ])


def fails_with_an_unreachable_remainder():
    from repro.spec import Failed
    trace = simple_trace([
        (frozenset(), Yielded(A), {A, B}),
        # B exists but is unreachable (reach nodes exclude its home)...
    ])
    trace.invocations.append(InvocationRecord(
        index=1, t_invoke=1.0, t_complete=1.5,
        yielded_pre=frozenset({A}), yielded_post=frozenset({A}),
        outcome=Failed("pessimism"),
        snapshots=(StateSnapshot(time=1.0, members=frozenset({A, B}),
                                 reachable_nodes=frozenset({"client"})),),
    ))
    return trace


def fails_then_junk():
    from repro.spec import Failed
    # a fig6-forbidden failure at index 1, followed by junk that the
    # structural checker would also flag
    trace = simple_trace([
        (frozenset(), Yielded(A), {A, B}),
    ])
    trace.invocations.append(InvocationRecord(
        index=1, t_invoke=1.0, t_complete=1.5,
        yielded_pre=frozenset({A}), yielded_post=frozenset({A}),
        outcome=Failed("boom"), snapshots=(snapshot(1.0, {A, B}),),
    ))
    trace.invocations.append(InvocationRecord(
        index=2, t_invoke=2.0, t_complete=2.5,
        yielded_pre=frozenset({A}), yielded_post=frozenset({A, B}),
        outcome=Yielded(B), snapshots=(snapshot(2.0, {A, B}),),
    ))
    return trace


def test_returning_early_violates_fig6():
    trace = returns_early()
    history = [(0.0, frozenset({A, B}))]
    report = check_conformance(trace, spec_by_id("fig6"), history=history)
    assert not report.conformant
    assert any("returns" in str(v) or "suspends" in str(v)
               for v in report.ensures_violations)


def test_failing_violates_fig6_but_not_fig5():
    trace = fails_with_an_unreachable_remainder()
    history = [(0.0, frozenset({A, B}))]
    fig5 = check_conformance(trace, spec_by_id("fig5"), history=history)
    assert fig5.conformant, fig5.counterexample()
    fig6 = check_conformance(trace, spec_by_id("fig6"), history=history)
    assert not fig6.conformant


# ---------------------------------------------------------------------------
# check_trace memoizes reachable(x_σ) per check: same verdicts, word for word
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build", [returns_early,
                                   fails_with_an_unreachable_remainder,
                                   fails_then_junk])
def test_memoized_check_reports_the_same_violations(build):
    from repro.spec import ALL_FIGURES, RELAXED_VARIANTS
    trace = build()
    violating = 0
    for spec in ALL_FIGURES + RELAXED_VARIANTS:
        got = spec.check_trace(trace)
        assert got == check_trace_without_memo(spec, trace), spec.spec_id
        violating += bool(got)
    assert violating                    # these traces do violate something


# ---------------------------------------------------------------------------
# one definition of ``reachable``: any reachable live copy, home or replica
# ---------------------------------------------------------------------------

def test_failover_yield_from_replica_conforms_to_fig6():
    from helpers import CLIENT, drain_all, standard_world
    from repro.weaksets import DynamicSet

    kernel, net, world, _ = standard_world(n_servers=3)
    element = world.seed_member("coll", "m", value="v", home="s1",
                                replicas=("s2",))
    net.crash("s1")
    ws = DynamicSet(world, CLIENT, "coll")          # failover on by default
    result = drain_all(kernel, ws)
    # The world's ground truth and the iterator agree: the data is
    # reachable through its replica copy, and it is yielded from there.
    assert world.reachable_members("coll", CLIENT) == {element}
    assert result.elements == [element]
    # So does the checker's snapshot: it recorded the live copy on s2.
    entry = ws.last_trace.invocations[0].entry_snapshot
    assert entry.live_replicas == {("s2", element.oid)}
    assert entry.reachable_of(entry.members) == {element}
    report = check_conformance(ws.last_trace, spec_by_id("fig6"), world)
    assert report.conformant, report.counterexample()
