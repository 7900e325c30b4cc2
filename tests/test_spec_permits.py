"""The fast verdict is the clause's verdict.

``IteratorSpec.permits`` decides an outcome without building the
clause's sets: the guard set inside ``yielded_pre`` or not picks the
kind, and a suspends case is then two membership tests.
``required_outcome`` stays the one written-out definition (the
counterexample text reads it), so the two are held equal here over
every row — the seven of :mod:`repro.spec.figures` and the two
best-effort rows nobody wrote a figure for — and over generated
``s``, ``reach ⊆ s``, ``yielded_pre`` and outcomes, yielded elements in
and out of each set.  ``structural_violations`` likewise checks
``post = pre ∪ {e}`` by size, membership and subset, and is held to
the set algebra it replaced.
"""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.spec import ALL_FIGURES, RELAXED_VARIANTS, spec_by_id
from repro.spec.iterspec import RETURNS, structural_violations
from repro.spec.state import InvocationRecord
from repro.spec.termination import Failed, Returned, Yielded
from repro.spec.trace import IterationTrace
from repro.store import Element

ROWS = ALL_FIGURES + RELAXED_VARIANTS + (
    replace(spec_by_id("fig4"), spec_id="fig4-best-effort", exhausted=RETURNS),
    replace(spec_by_id("fig5"), spec_id="fig5-best-effort", exhausted=RETURNS),
)

UNIVERSE = tuple(Element(f"e{i}", f"oid-{i}", f"n{i % 3}") for i in range(6))
subsets = st.frozensets(st.sampled_from(UNIVERSE))
outcomes = st.one_of(st.sampled_from(UNIVERSE).map(Yielded),
                     st.just(Returned()), st.just(Failed()))


def record(index, pre, post, outcome):
    return InvocationRecord(index=index, t_invoke=0.0, t_complete=0.0,
                            yielded_pre=pre, yielded_post=post,
                            outcome=outcome, snapshots=())


def clause_verdict(spec, inv, s, reach):
    """The verdict read off ``required_outcome``'s materialised sets."""
    kind, allowed = spec.required_outcome(s, reach, inv.yielded_pre)
    outcome = inv.outcome
    if kind == "suspends":
        return isinstance(outcome, Yielded) and outcome.element in allowed
    if kind == "returns":
        return isinstance(outcome, Returned)
    return isinstance(outcome, Failed)


def test_the_rows_are_the_seven_figures_and_two_best_effort_rows():
    assert len(ROWS) == 9 and len({spec.spec_id for spec in ROWS}) == 9


@pytest.mark.parametrize("spec", ROWS, ids=lambda spec: spec.spec_id)
@given(s=subsets, data=st.data(), yielded_pre=subsets, outcome=outcomes)
def test_permits_agrees_with_required_outcome(spec, s, data, yielded_pre,
                                              outcome):
    reach = data.draw(st.frozensets(st.sampled_from(sorted(s)))
                      if s else st.just(frozenset()))
    inv = record(0, yielded_pre, yielded_pre, outcome)
    assert spec.permits(inv, s, reach) == clause_verdict(spec, inv, s, reach)


# -- structural_violations: the set algebra it replaced ------------------------

def reference_structural_violations(trace):
    """The discipline as set algebra: ``post != pre | {e}``."""
    found = []
    expected, terminated = frozenset(), False
    for inv in trace.invocations:
        if terminated:
            found.append(inv.index)
        if inv.yielded_pre != expected:
            found.append(inv.index)
        if isinstance(inv.outcome, Yielded):
            e = inv.outcome.element
            if e in inv.yielded_pre:
                found.append(inv.index)
            if inv.yielded_post != inv.yielded_pre | {e}:
                found.append(inv.index)
        else:
            terminated = True
            if inv.yielded_post != inv.yielded_pre:
                found.append(inv.index)
        expected = inv.yielded_post
    return found


def trace_of(*invocations):
    trace = IterationTrace(coll_id="coll", client="client")
    trace.invocations = [record(i, *inv) for i, inv in enumerate(invocations)]
    return trace


@given(st.lists(st.tuples(subsets, subsets, outcomes), max_size=5))
def test_structural_violations_agree_with_the_set_algebra(invocations):
    trace = trace_of(*invocations)
    assert [v.invocation for v in structural_violations(trace)] == \
        reference_structural_violations(trace)


A, B, C = UNIVERSE[:3]


@pytest.mark.parametrize("invocations, message", [
    # same size as pre ∪ {e}, yet not it: e missing, or a pre member missing
    ([(frozenset({A}), frozenset({A, C}), Yielded(B))], "yielded_post ≠"),
    ([(frozenset({A}), frozenset({B, C}), Yielded(B))], "yielded_post ≠"),
    ([(frozenset(), frozenset({A}), Yielded(A)),
      (frozenset({A}), frozenset({A}), Yielded(A))], "duplicate yield of"),
    ([(frozenset({A}), frozenset({A, B}), Returned())],
     "yielded changed on a non-yielding invocation"),
    ([(frozenset(), frozenset(), Returned()),
      (frozenset(), frozenset({A}), Yielded(A))],
     "invocation after the iterator terminated"),
    ([(frozenset(), frozenset({A}), Yielded(A)),
      (frozenset({B}), frozenset({A, B}), Yielded(A))],
     "does not continue the history object"),
], ids=["same-size-e-missing", "same-size-pre-missing", "duplicate",
        "changed-on-return", "after-termination", "discontinuous"])
def test_each_malformed_trace_is_still_reported(invocations, message):
    found = structural_violations(trace_of(*invocations))
    assert any(message in v.message for v in found), found


def test_an_equal_history_object_continues_it():
    # continuity is tested by identity first, but an equal copy continues
    first = frozenset({A})
    trace = trace_of((frozenset(), first, Yielded(A)),
                     (frozenset({A}), frozenset({A, B}), Yielded(B)),
                     (frozenset({A, B}), frozenset({A, B}), Returned()))
    assert trace.invocations[1].yielded_pre is not first
    assert structural_violations(trace) == []
