"""The seven specs as rows: what no digest sees of "behaviour-preserving".

* the Larch text `render_spec` prints from a row is, byte for byte, the
  text the per-figure classes printed before they became rows;
* `check_trace` and `explain_trace` are two views of one walk, and both
  agree with the reference recomputation in `helpers`;
* every weak set names a figure `spec_by_id` resolves, and `audit()` is
  `check_conformance` against it;
* the row a weak set names is the row its one iterator class *reads*,
  and what each invocation did and when — `Failed` text and timing no
  table prints — is what the eight hand-written iterator classes did.
"""

import json
import os

import pytest

from repro.bench.exp_conformance import E1_WORLD, IMPL_CASES, ImplCase, run_case
from repro.spec import (
    ALL_FIGURES,
    RELAXED_VARIANTS,
    IterationTrace,
    IteratorSpec,
    check_conformance,
    explain_trace,
    render_all,
    render_spec,
    spec_by_id,
    structural_violations,
)
from repro import weaksets
from repro.weaksets import (
    DynamicSet,
    ElementsIterator,
    QuorumGrowOnlySet,
    SnapshotSet,
    StrongSet,
    WeakSet,
)

from helpers import CLIENT, check_trace_without_memo, drain_all, standard_world

SPECS = ALL_FIGURES + RELAXED_VARIANTS

# captured from the parent of the rows refactor (PR 18), not from this tree
GOLDEN_RENDER = {
    "fig1": """\
% Figure 1: Immutable set (failures ignored)
constraint s_i = s_j
elements = iter (s: set) yields (e: elem)
  remembers yielded: set initially {}
  ensures if yielded_pre ⊊ s_first
          then yielded_post − yielded_pre = {e}
               ∧ yielded_post ⊆ s_first
               ∧ e ∈ s_first − yielded_pre ∧ suspends
          else returns   % yielded_pre = s_first""",
    "fig3": """\
% Figure 3: Immutable set with failures
constraint s_i = s_j
elements = iter (s: set) yields (e: elem) signals (failure)
  remembers yielded: set initially {}
  ensures if yielded_pre ⊊ reachable(s_first)
          then yielded_post − yielded_pre = {e}
               ∧ yielded_post ⊆ s_first
               ∧ e ∈ reachable(s_first) ∧ suspends
          else if yielded_pre = reachable(s_first)
                  ∧ yielded_pre ⊊ s_first
          then fails
          else returns   % yielded_pre = s_first""",
    "fig4": """\
% Figure 4: Mutable set, loss of some mutations (first-state snapshot)
constraint true
elements = iter (s: set) yields (e: elem) signals (failure)
  remembers yielded: set initially {}
  ensures if yielded_pre ⊊ reachable(s_first)
          then yielded_post − yielded_pre = {e}
               ∧ yielded_post ⊆ s_first
               ∧ e ∈ reachable(s_first) ∧ suspends
          else if yielded_pre = reachable(s_first)
                  ∧ yielded_pre ⊊ s_first
          then fails
          else returns   % yielded_pre = s_first""",
    "fig5": """\
% Figure 5: Growing-only set, pessimistic
constraint s_i ⊆ s_j
elements = iter (s: set) yields (e: elem) signals (failure)
  remembers yielded: set initially {}
  ensures if yielded_pre ⊊ reachable(s_pre)
          then yielded_post − yielded_pre = {e}
               ∧ yielded_post ⊆ s_pre
               ∧ e ∈ reachable(s_pre) ∧ suspends
          else if yielded_pre = s_pre then returns
          else fails""",
    "fig6": """\
% Figure 6: Growing and shrinking set, optimistic (dynamic sets)
constraint true
elements = iter (s: set) yields (e: elem)
  remembers yielded: set initially {}
  ensures if ∃ e ∈ s_pre : e ∉ yielded_pre
          then yielded_post − yielded_pre = {e}
               ∧ e ∈ reachable(s_pre) ∧ suspends
          else returns""",
    "fig3-per-run": """\
% Figure 3 (relaxed, §3.1): Immutable during a run, mutable between runs (§3.1)
constraint during any run: s_i = s_j
elements = iter (s: set) yields (e: elem) signals (failure)
  remembers yielded: set initially {}
  ensures if yielded_pre ⊊ reachable(s_first)
          then yielded_post − yielded_pre = {e}
               ∧ yielded_post ⊆ s_first
               ∧ e ∈ reachable(s_first) ∧ suspends
          else if yielded_pre = reachable(s_first)
                  ∧ yielded_pre ⊊ s_first
          then fails
          else returns   % yielded_pre = s_first""",
    "fig5-per-run": """\
% Figure 5 (relaxed, §3.3): Grow-only during a run, mutable between runs (§3.3)
constraint during any run: s_i ⊆ s_j
elements = iter (s: set) yields (e: elem) signals (failure)
  remembers yielded: set initially {}
  ensures if yielded_pre ⊊ reachable(s_pre)
          then yielded_post − yielded_pre = {e}
               ∧ yielded_post ⊆ s_pre
               ∧ e ∈ reachable(s_pre) ∧ suspends
          else if yielded_pre = s_pre then returns
          else fails""",
}


@pytest.mark.parametrize("spec_id", sorted(GOLDEN_RENDER))
def test_render_spec_matches_the_golden_text(spec_id):
    assert render_spec(spec_by_id(spec_id)) == GOLDEN_RENDER[spec_id]


def test_render_all_is_the_five_figures_in_paper_order():
    assert render_all() == "\n\n".join(
        GOLDEN_RENDER[spec.spec_id] for spec in ALL_FIGURES)


def test_the_specs_are_rows_not_classes():
    assert IteratorSpec.__subclasses__() == []
    assert {type(spec) for spec in SPECS} == {IteratorSpec}
    assert [spec.spec_id for spec in SPECS] == list(GOLDEN_RENDER)


def test_a_row_outside_the_vocabulary_is_rejected():
    from dataclasses import replace

    fig6 = spec_by_id("fig6")
    for field in ("membership_basis", "guard", "yields", "exhausted"):
        with pytest.raises(ValueError, match="fig6"):
            replace(fig6, **{field: "reachable"})


@pytest.mark.parametrize("case", IMPL_CASES, ids=lambda c: c.cls.impl_name)
def test_check_and_explain_are_two_views_of_one_walk(case):
    """Over the E1 matrix traces x every spec: the invocations
    `explain_trace` marks unjustified are exactly `check_trace`'s
    non-structural violations, and both equal the reference."""
    violating = 0
    for seed in range(5):
        trace = run_case(case, E1_WORLD, seed).last_trace
        structural = structural_violations(trace)
        for spec in SPECS:
            violations = spec.check_trace(trace)
            assert violations == check_trace_without_memo(spec, trace)
            assert violations[:len(structural)] == structural
            explanations = explain_trace(trace, spec)
            assert [e.index for e in explanations] == [
                inv.index for inv in trace.invocations]
            assert ([(e.index, e.detail) for e in explanations if not e.justified]
                    == [(v.invocation, v.message)
                        for v in violations[len(structural):]])
            violating += bool(violations)
    # every implementation's churn breaks some figure, or its stillness none
    assert violating or case.mutate in ("none", "between-runs")


def test_explain_conformant_trace_all_justified():
    kernel, net, world, elements = standard_world(members=4)
    ws = DynamicSet(world, CLIENT, "coll")
    drain_all(kernel, ws)
    explanations = explain_trace(ws.last_trace, spec_by_id("fig6"))
    assert len(explanations) == 5           # 4 yields + returns
    assert all(e.justified for e in explanations)
    assert all("justified by σ@" in e.detail for e in explanations)
    assert "✓" in str(explanations[0])


def test_explain_violating_trace_points_at_the_bad_invocation():
    kernel, net, world, elements = standard_world(members=3)
    ws = SnapshotSet(world, CLIENT, "coll")
    iterator = ws.elements()

    def proc():
        yield from iterator.invoke()
        yield from ws.repo.add("coll", "zz-missed", value="M")
        yield from iterator.drain()

    kernel.run_process(proc())
    # fig6 demands the addition be yielded; the snapshot returns without it
    explanations = explain_trace(ws.last_trace, spec_by_id("fig6"))
    bad = [e for e in explanations if not e.justified]
    assert bad
    assert bad[-1].outcome == "returns"
    assert "requires suspends" in bad[-1].detail


def test_explain_first_basis_picks_working_candidate():
    kernel, net, world, elements = standard_world(members=4)
    ws = SnapshotSet(world, CLIENT, "coll")
    drain_all(kernel, ws)
    explanations = explain_trace(ws.last_trace, spec_by_id("fig4"))
    assert all(e.justified for e in explanations)


def test_explain_empty_trace():
    trace = IterationTrace(coll_id="c", client="x")
    assert explain_trace(trace, spec_by_id("fig6")) == []


def weak_set_classes():
    exported = (getattr(weaksets, name) for name in weaksets.__all__)
    return [cls for cls in exported
            if isinstance(cls, type) and issubclass(cls, WeakSet)
            and cls is not WeakSet]


@pytest.mark.parametrize("cls", weak_set_classes(), ids=lambda c: c.__name__)
def test_every_weak_set_names_its_figure_and_audits_against_it(cls):
    spec = spec_by_id(cls.semantics)          # resolves: no KeyError
    ws = run_case(ImplCase(cls, "none", blip=True), E1_WORLD, seed=0)
    assert ws.last_trace.impl_name == cls.impl_name
    report = ws.audit()
    expected = check_conformance(ws.last_trace, spec, ws.world)
    assert report == expected
    assert report.spec_id == cls.semantics
    assert report.conformant, report.counterexample()


def test_impl_names_are_distinct():
    names = [cls.impl_name for cls in weak_set_classes()]
    assert len(set(names)) == len(names) == 9


# ---------------------------------------------------------------------------
# the row is the iterator
# ---------------------------------------------------------------------------

def test_there_is_one_iterator_class():
    assert ElementsIterator.__subclasses__() == []


def test_figure_6_is_written_once():
    """Dynamic sets are ``DynamicSet``'s second client, not a second
    implementation: no module of ``repro.dynsets`` names a pipeline, and
    a pipeline has no retry policy for one to select."""
    import inspect
    import pathlib

    from repro import dynsets
    from repro.store import FetchPipeline

    for path in sorted(pathlib.Path(dynsets.__file__).parent.glob("*.py")):
        assert "FetchPipeline" not in path.read_text("utf-8"), path.name
    assert not {"retry_interval", "give_up_after"} & set(
        inspect.signature(FetchPipeline).parameters)


@pytest.mark.parametrize("cls", weak_set_classes(), ids=lambda c: c.__name__)
def test_the_iterator_carries_its_sets_row(cls):
    kernel, net, world, _ = standard_world(members=2, with_locks=True,
                                           policy=cls.expected_policy)
    ws = cls(world, CLIENT, "coll")
    iterator = ws.elements()
    assert type(iterator) is ElementsIterator
    assert iterator.spec is ws.spec is spec_by_id(cls.semantics)
    assert type(iterator.mechanism) is cls.mechanism


# captured from the parent of the one-iterator refactor (PR 21), not from
# this tree: per trace, per invocation, [str(outcome), t_complete]
with open(os.path.join(os.path.dirname(__file__), "golden_outcomes.json"),
          encoding="utf-8") as _golden:
    GOLDEN_OUTCOMES = json.load(_golden)

GOLDEN_CASES = IMPL_CASES + (ImplCase(StrongSet, "churn", blip=True),
                             ImplCase(QuorumGrowOnlySet, "grow", blip=True))


def outcomes_of(ws):
    return [[[str(inv.outcome), inv.t_complete] for inv in trace.invocations]
            for trace in ws.traces]


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: c.cls.impl_name)
def test_every_invocation_ends_as_and_when_it_did_before(case):
    for seed in range(3):
        ws = run_case(case, E1_WORLD, seed)
        assert (outcomes_of(ws)
                == GOLDEN_OUTCOMES["e1"][f"{case.cls.impl_name}@{seed}"]), seed


@pytest.mark.parametrize("cls", weak_set_classes(), ids=lambda c: c.__name__)
def test_every_failure_reads_as_it_did_before(cls):
    """A home crashed for good: each pessimistic design point fails in
    its own words, Figure 1 sails through, optimism gives up."""
    kernel, net, world, _ = standard_world(
        n_servers=3, members=6, replicas=2, with_locks=True,
        policy=cls.expected_policy)
    net.crash("s1")
    kwargs = {"give_up_after": 1.0} if cls is DynamicSet else {}
    ws = cls(world, CLIENT, "coll", rpc_timeout=0.5, **kwargs)
    drain_all(kernel, ws)
    assert outcomes_of(ws) == GOLDEN_OUTCOMES["crashed-home"][cls.impl_name]


def test_a_keyword_a_design_point_does_not_take_is_a_type_error():
    kernel, net, world, _ = standard_world(members=1, with_locks=True)
    with pytest.raises(TypeError, match="give_up_after"):
        SnapshotSet(world, CLIENT, "coll", give_up_after=1.0).elements()
    with pytest.raises(TypeError, match="lock_wait_timeout"):
        DynamicSet(world, CLIENT, "coll", lock_wait_timeout=1.0).elements()
    with pytest.raises(TypeError, match="retry_interval"):
        StrongSet(world, CLIENT, "coll", retry_interval=0.1).elements()
    # each design point's own keywords still reach it
    assert DynamicSet(world, CLIENT, "coll", retry_interval=0.1, use_cache=True,
                      failover=False, fetch_window=2).elements()
    assert StrongSet(world, CLIENT, "coll", lock_wait_timeout=1.0).elements()


def test_a_row_no_body_serves_is_rejected():
    from dataclasses import replace

    from repro.spec.iterspec import S

    class Unsound(SnapshotSet):
        # guards on reachable(s), yields from s: may yield the unreachable
        spec = replace(spec_by_id("fig4"), spec_id="unsound", yields=S)

    kernel, net, world, _ = standard_world(members=1)
    with pytest.raises(ValueError, match="unsound"):
        Unsound(world, CLIENT, "coll").elements()
