"""Constraint clauses: immutable, grow-only, trivial, per-run."""

from hypothesis import given, strategies as st

from repro.spec import (
    GrowOnlyConstraint,
    ImmutableConstraint,
    TrivialConstraint,
    per_run_grow_only,
    per_run_immutable,
)
from repro.spec.constraints import clip_history
from repro.store import Element


def elem(name: str) -> Element:
    return Element(name=name, oid=f"oid-{name}", home="s0")


A, B, C = elem("a"), elem("b"), elem("c")


def hist(*values, times=None):
    values = [frozenset(v) for v in values]
    times = times or [float(i) for i in range(len(values))]
    return list(zip(times, values))


# ---------------------------------------------------------------------------
# basic constraints
# ---------------------------------------------------------------------------

def test_trivial_never_violated():
    h = hist({A}, {B}, set(), {A, B, C})
    assert TrivialConstraint().check(h) == []
    assert check_pairwise(TrivialConstraint(), h) == []


def test_immutable_holds_on_constant_history():
    h = hist({A, B}, {A, B}, {A, B})
    assert ImmutableConstraint().check(h) == []


def test_immutable_flags_any_change():
    h = hist({A}, {A, B})
    v = ImmutableConstraint().check(h)
    assert len(v) == 1
    assert "immutable" in v[0].message


def test_grow_only_holds_on_monotone_history():
    h = hist(set(), {A}, {A, B}, {A, B, C})
    assert GrowOnlyConstraint().check(h) == []


def test_grow_only_flags_shrink():
    h = hist({A, B}, {A})
    assert len(GrowOnlyConstraint().check(h)) == 1


def test_grow_only_flags_replace():
    # {A} -> {B} is neither subset nor superset: still a violation.
    h = hist({A}, {B})
    assert len(GrowOnlyConstraint().check(h)) == 1


# ---------------------------------------------------------------------------
# consecutive-pair checking is equivalent to the paper's ∀ i<j form
# (valid because =, ⊆ are transitive)
# ---------------------------------------------------------------------------

def check_pairwise(constraint, history):
    """The full ∀ i<j quantification, O(n²): the oracle the
    consecutive-pair ``check`` is compared against.  Returns the
    violated pairs' times."""
    return [(t_i, t_j)
            for i, (t_i, s_i) in enumerate(history)
            for t_j, s_j in history[i + 1:]
            if not constraint.holds_pair(s_i, s_j)]


members_strategy = st.lists(
    st.sets(st.sampled_from([A, B, C])), min_size=0, max_size=8
)


@given(members_strategy)
def test_immutable_consecutive_equiv_pairwise(values):
    h = hist(*values)
    c = ImmutableConstraint()
    assert bool(c.check(h)) == bool(check_pairwise(c, h))


@given(members_strategy)
def test_grow_only_consecutive_equiv_pairwise(values):
    h = hist(*values)
    c = GrowOnlyConstraint()
    assert bool(c.check(h)) == bool(check_pairwise(c, h))


# ---------------------------------------------------------------------------
# per-run constraints: the inner constraint over each run's clipped window
# (the clipping ``check_conformance`` does before it judges)
# ---------------------------------------------------------------------------

def per_run(constraint, h, windows):
    return [v for a, b in windows
            for v in constraint.check(clip_history(h, a, b))]


def test_per_run_immutable_allows_change_between_runs():
    h = hist({A}, {A}, {A, B}, {A, B}, times=[0.0, 1.0, 5.0, 6.0])
    windows = [(0.5, 1.5), (5.5, 6.5)]  # the change at t=5 is between runs
    assert per_run(per_run_immutable(), h, windows) == []


def test_per_run_immutable_flags_change_during_run():
    h = hist({A}, {A, B}, times=[0.0, 1.0])
    windows = [(0.5, 1.5)]  # the change at t=1.0 falls inside the run
    assert len(per_run(per_run_immutable(), h, windows)) == 1


def test_per_run_uses_value_in_force_at_window_start():
    # value {A} from t=0; window starts at 2.0; change at 3.0 inside it
    h = hist({A}, {A, B}, times=[0.0, 3.0])
    assert len(per_run(per_run_immutable(), h, [(2.0, 4.0)])) == 1
    # but if the window closes before the change, all is well
    assert per_run(per_run_immutable(), h, [(2.0, 2.9)]) == []


def test_per_run_grow_only_allows_shrink_between_runs():
    h = hist({A, B}, {A}, {A, C}, times=[0.0, 4.0, 5.0])
    windows = [(0.0, 3.0), (4.5, 6.0)]  # shrink at t=4 is between runs
    assert per_run(per_run_grow_only(), h, windows) == []


def test_per_run_grow_only_flags_shrink_during_run():
    h = hist({A, B}, {A}, times=[0.0, 1.0])
    assert len(per_run(per_run_grow_only(), h, [(0.5, 2.0)])) == 1


def test_per_run_with_no_windows_is_vacuous():
    h = hist({A}, set(), {B})
    assert per_run(per_run_immutable(), h, []) == []


@given(members_strategy,
       st.floats(min_value=0.0, max_value=8.0),
       st.floats(min_value=0.0, max_value=8.0))
def test_per_run_is_its_inner_constraint_over_a_window(values, a, b):
    h = hist(*values)
    a, b = min(a, b), max(a, b)
    clipped = clip_history(h, a, b)
    assert (per_run_immutable().check(clipped)
            == ImmutableConstraint().check(clipped))
    assert (per_run_grow_only().check(clipped)
            == GrowOnlyConstraint().check(clipped))


def test_relaxed_rows_agree_with_their_strict_rows_on_a_recorded_run():
    # One recorded drain with an add and a remove inside its window: the
    # checker clips the history to that window, so a strict row and its
    # per-run relaxation give the same constraint verdict.
    from helpers import CLIENT, standard_world
    from repro.sim import Sleep
    from repro.spec import check_conformance, spec_by_id
    from repro.weaksets import DynamicSet

    kernel, net, world, elements = standard_world(members=4)
    ws = DynamicSet(world, CLIENT, "coll")
    iterator = ws.elements()

    def proc():
        yield from iterator.invoke()
        yield from ws.add("fresh", value="F")
        yield Sleep(0.1)
        yield from ws.repo.remove("coll", elements[3])
        yield from iterator.drain()

    kernel.run_process(proc())
    trace = ws.last_trace
    clipped = clip_history(world.membership_history("coll"), *trace.window())
    for strict, relaxed in (("fig3", "fig3-per-run"), ("fig5", "fig5-per-run")):
        got = check_conformance(trace, spec_by_id(strict), world)
        per_run_got = check_conformance(trace, spec_by_id(relaxed), world)
        assert got.constraint_violations == per_run_got.constraint_violations
        assert got.constraint_violations == (
            spec_by_id(relaxed).constraint.check(clipped))
        assert got.constraint_violations       # the mid-run remove is flagged
