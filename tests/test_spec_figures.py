"""Unit tests for the figure specs' ensures clauses (required_outcome)."""

import pytest

from repro.spec import (
    ALL_FIGURES,
    render_all,
    render_spec,
    spec_by_id,
)
from repro.store import Element


def elem(name):
    return Element(name=name, oid=f"oid-{name}", home=f"h-{name}")


A, B, C = elem("a"), elem("b"), elem("c")
S = frozenset({A, B, C})
fs = frozenset


# ---------------------------------------------------------------------------
# Figure 1
# ---------------------------------------------------------------------------

def test_fig1_suspends_while_unyielded_remain():
    spec = spec_by_id("fig1")
    kind, allowed = spec.required_outcome(S, S, fs({A}))
    assert kind == "suspends"
    assert allowed == fs({B, C})


def test_fig1_returns_when_all_yielded():
    spec = spec_by_id("fig1")
    kind, _ = spec.required_outcome(S, S, S)
    assert kind == "returns"


def test_fig1_ignores_reachability():
    spec = spec_by_id("fig1")
    kind, allowed = spec.required_outcome(S, fs(), fs())
    assert kind == "suspends"
    assert allowed == S  # unreachable elements still demanded


def test_fig1_disallows_failure():
    assert not spec_by_id("fig1").allows_failure


# ---------------------------------------------------------------------------
# Figures 3 and 4 (shared ensures clause)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [spec_by_id("fig3"),
                                  spec_by_id("fig4")])
def test_fig34_suspends_on_reachable_unyielded(spec):
    reach = fs({A, B})
    kind, allowed = spec.required_outcome(S, reach, fs({A}))
    assert kind == "suspends"
    assert allowed == fs({B})


@pytest.mark.parametrize("spec", [spec_by_id("fig3"),
                                  spec_by_id("fig4")])
def test_fig34_fails_when_reachables_exhausted_but_set_not(spec):
    reach = fs({A})
    kind, _ = spec.required_outcome(S, reach, fs({A}))
    assert kind == "fails"


@pytest.mark.parametrize("spec", [spec_by_id("fig3"),
                                  spec_by_id("fig4")])
def test_fig34_returns_when_everything_yielded(spec):
    kind, _ = spec.required_outcome(S, S, S)
    assert kind == "returns"


def test_fig3_vs_fig4_differ_only_in_constraint():
    fig3, fig4 = spec_by_id("fig3"), spec_by_id("fig4")
    assert fig3.constraint.name == "immutable"
    assert fig4.constraint.name == "true"
    state = (S, fs({A, B}), fs({A}))
    assert fig3.required_outcome(*state) == fig4.required_outcome(*state)


# ---------------------------------------------------------------------------
# Figure 5
# ---------------------------------------------------------------------------

def test_fig5_suspends_on_reachable_unyielded():
    spec = spec_by_id("fig5")
    kind, allowed = spec.required_outcome(S, fs({A, C}), fs({A}))
    assert kind == "suspends"
    assert allowed == fs({C})


def test_fig5_returns_only_when_yielded_equals_s_pre():
    spec = spec_by_id("fig5")
    kind, _ = spec.required_outcome(S, S, S)
    assert kind == "returns"


def test_fig5_fails_when_unyielded_member_unreachable():
    spec = spec_by_id("fig5")
    # yielded = {A}; B, C in the set but unreachable
    kind, _ = spec.required_outcome(S, fs({A}), fs({A}))
    assert kind == "fails"


def test_fig5_growth_demands_more_yields():
    """A set that grew after yields still demands the new elements."""
    spec = spec_by_id("fig5")
    kind, allowed = spec.required_outcome(S, S, fs({A, B}))
    assert kind == "suspends" and allowed == fs({C})


# ---------------------------------------------------------------------------
# Figure 6
# ---------------------------------------------------------------------------

def test_fig6_suspends_on_any_unyielded_member():
    spec = spec_by_id("fig6")
    kind, allowed = spec.required_outcome(S, fs({B, C}), fs({B}))
    assert kind == "suspends"
    assert allowed == fs({C})  # must be reachable and unyielded


def test_fig6_blocks_rather_than_fails():
    """Unyielded members exist but none reachable: the required outcome
    is still 'suspends' — with an empty allowed set, no completed
    invocation can satisfy it, which is exactly the spec's blocking."""
    spec = spec_by_id("fig6")
    kind, allowed = spec.required_outcome(S, fs(), fs({A}))
    assert kind == "suspends"
    assert allowed == fs()


def test_fig6_returns_when_s_pre_subset_of_yielded():
    spec = spec_by_id("fig6")
    # shrinkage may leave yielded ⊋ s_pre; still returns
    kind, _ = spec.required_outcome(fs({A}), fs({A}), fs({A, B}))
    assert kind == "returns"


def test_fig6_disallows_failure():
    assert not spec_by_id("fig6").allows_failure


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_all_figures_have_unique_ids():
    ids = [s.spec_id for s in ALL_FIGURES]
    assert len(ids) == len(set(ids)) == 5


def test_spec_by_id_unknown():
    with pytest.raises(KeyError):
        spec_by_id("fig99")


# ---------------------------------------------------------------------------
# rendering: the Larch text each row prints
# ---------------------------------------------------------------------------

def test_render_fig3_mentions_reachable_and_failure():
    text = render_spec(spec_by_id("fig3"))
    assert "constraint s_i = s_j" in text
    assert "signals (failure)" in text
    assert "reachable(s_first)" in text
    assert "fails" in text


def test_render_fig6_has_no_failure_signal():
    text = render_spec(spec_by_id("fig6"))
    assert "signals" not in text
    assert "∃ e ∈ s_pre" in text
    assert "fails" not in text


def test_render_fig1_ignores_reachability():
    text = render_spec(spec_by_id("fig1"))
    assert "reachable" not in text


def test_render_all_covers_five_figures():
    text = render_all()
    for fig in ["Figure 1", "Figure 3", "Figure 4", "Figure 5", "Figure 6"]:
        assert fig in text
