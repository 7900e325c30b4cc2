"""The paper's specification figures, executable.

Each class transcribes one figure's ``ensures`` clause into
:meth:`~repro.spec.iterspec.IteratorSpec.required_outcome`.  The
transcription is deliberately literal — branch order and strict/non-
strict subset distinctions follow the figures exactly — because the
whole point of the reproduction is that these *are* the specifications.
"""

from __future__ import annotations

from .constraints import (
    Constraint,
    GrowOnlyConstraint,
    ImmutableConstraint,
    TrivialConstraint,
    per_run_grow_only,
    per_run_immutable,
)
from .iterspec import IteratorSpec, Members

__all__ = [
    "Figure1ImmutableNoFailures",
    "Figure3ImmutableWithFailures",
    "Figure3PerRunImmutable",
    "Figure4SnapshotLossOfMutations",
    "Figure5GrowOnlyPessimistic",
    "Figure5PerRunGrowOnly",
    "Figure6OptimisticDynamic",
    "ALL_FIGURES",
    "RELAXED_VARIANTS",
    "spec_by_id",
]

class Figure1ImmutableNoFailures(IteratorSpec):
    """Figure 1: immutable set, failures ignored.

    ::

        constraint s_i = s_j
        elements = iter (s: set) yields (e: elem)
          remembers yielded: set initially {}
          ensures if yielded_pre ⊊ s_first
                  then yielded_post − yielded_pre = {e}
                       ∧ yielded_post ⊆ s_first
                       ∧ e ∈ s_first − yielded_pre ∧ suspends
                  else returns  % yielded_pre = s_first
    """

    spec_id = "fig1"
    title = "Immutable set (failures ignored)"
    paper_figure = "Figure 1"
    membership_basis = "first"
    allows_failure = False
    constraint: Constraint = ImmutableConstraint()

    def required_outcome(self, s: Members, reach: Members,
                         yielded_pre: Members) -> tuple[str, Members]:
        if s - yielded_pre:
            return "suspends", s - yielded_pre
        return "returns", frozenset()


class Figure3ImmutableWithFailures(IteratorSpec):
    """Figure 3: immutable set with failures.

    ::

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
                  else returns  % yielded_pre = s_first
    """

    spec_id = "fig3"
    title = "Immutable set with failures"
    paper_figure = "Figure 3"
    membership_basis = "first"
    allows_failure = True
    constraint: Constraint = ImmutableConstraint()

    def required_outcome(self, s: Members, reach: Members,
                         yielded_pre: Members) -> tuple[str, Members]:
        # We encode the figure's conditions element-wise, following the
        # prose ("In the normal case … if there are still elements to
        # yield"; "A failure occurs if everything reachable has been
        # yielded").  The figure's literal ``yielded ⊊ reachable(s_first)``
        # coincides with ``reachable − yielded ≠ ∅`` whenever yielded
        # elements stay reachable — the paper's implicit assumption — but
        # the literal form leaves no satisfiable branch once a yielded
        # element's home later becomes unreachable, so the element-wise
        # reading is the only checkable one.
        if reach - yielded_pre:
            return "suspends", reach - yielded_pre
        if yielded_pre < s:
            return "fails", frozenset()
        return "returns", frozenset()


class Figure4SnapshotLossOfMutations(Figure3ImmutableWithFailures):
    """Figure 4: mutable set, loss of some mutations.

    "The only visual difference between the specification in Figure 4
    and the previous one in Figure 3 is the change in the constraint
    clause.  Here, the predicate is true; the set may change arbitrarily
    over time." — the ensures clause is inherited verbatim from Fig 3.
    """

    spec_id = "fig4"
    title = "Mutable set, loss of some mutations (first-state snapshot)"
    paper_figure = "Figure 4"
    constraint: Constraint = TrivialConstraint()


class Figure5GrowOnlyPessimistic(IteratorSpec):
    """Figure 5: growing-only set, pessimistic failure handling.

    ::

        constraint s_i ⊆ s_j
        elements = iter (s: set) yields (e: elem) signals (failure)
          remembers yielded: set initially {}
          ensures if yielded_pre ⊊ reachable(s_pre)
                  then yielded_post − yielded_pre = {e}
                       ∧ yielded_post ⊆ s_pre
                       ∧ e ∈ reachable(s_pre) ∧ suspends
                  else if yielded_pre = s_pre then returns
                  else fails
    """

    spec_id = "fig5"
    title = "Growing-only set, pessimistic"
    paper_figure = "Figure 5"
    membership_basis = "pre"
    allows_failure = True
    constraint: Constraint = GrowOnlyConstraint()

    def required_outcome(self, s: Members, reach: Members,
                         yielded_pre: Members) -> tuple[str, Members]:
        # Element-wise reading, as in Figure 3 (see the comment there).
        if reach - yielded_pre:
            return "suspends", reach - yielded_pre
        if yielded_pre == s:
            return "returns", frozenset()
        return "fails", frozenset()


class Figure6OptimisticDynamic(IteratorSpec):
    """Figure 6: growing and shrinking set, optimistic failure handling.

    ::

        constraint true
        elements = iter (s: set) yields (e: elem)
          remembers yielded: set initially {}
          ensures if ∃ e ∈ s_pre : e ∉ yielded_pre
                  then yielded_post − yielded_pre = {e}
                       ∧ e ∈ reachable(s_pre) ∧ suspends
                  else returns

    Note the missing ``signals (failure)``: the optimistic iterator
    never fails — "it may never return if a failure is detected"
    (blocking, not failing).
    """

    spec_id = "fig6"
    title = "Growing and shrinking set, optimistic (dynamic sets)"
    paper_figure = "Figure 6"
    membership_basis = "pre"
    allows_failure = False
    constraint: Constraint = TrivialConstraint()

    def required_outcome(self, s: Members, reach: Members,
                         yielded_pre: Members) -> tuple[str, Members]:
        if s - yielded_pre:
            return "suspends", reach - yielded_pre
        return "returns", frozenset()


class Figure3PerRunImmutable(Figure3ImmutableWithFailures):
    """§3.1's relaxation of Figure 3.

    "A less stringent specification would allow mutations to occur to
    the set when no one is iterating over it, but prohibit mutations
    during iteration.  We could relax the constraint to be:
    constraint ∀ i < k < j : (terminates_i ≠ suspend ∧ terminates_j ≠
    suspend ∧ terminates_k = suspend) ⇒ (s_i = s_k = s_j)" — the set
    is immutable between the first-state and last-state of any one run,
    free otherwise.  The ensures clause is Figure 3's verbatim.
    """

    spec_id = "fig3-per-run"
    title = "Immutable during a run, mutable between runs (§3.1)"
    paper_figure = "Figure 3 (relaxed, §3.1)"
    constraint = per_run_immutable()


class Figure5PerRunGrowOnly(Figure5GrowOnlyPessimistic):
    """§3.3's relaxation of Figure 5.

    "Just as for the specification for the immutable set with failures,
    we could modify the constraint clause to permit arbitrary mutations
    between different runs of the iterator and growth only between
    invocations of any one run."  The ghost protocol
    (``policy="grow-during-run"``) is the implementation technique the
    paper sketches for exactly this spec.
    """

    spec_id = "fig5-per-run"
    title = "Grow-only during a run, mutable between runs (§3.3)"
    paper_figure = "Figure 5 (relaxed, §3.3)"
    constraint = per_run_grow_only()


ALL_FIGURES: tuple[IteratorSpec, ...] = (
    Figure1ImmutableNoFailures(),
    Figure3ImmutableWithFailures(),
    Figure4SnapshotLossOfMutations(),
    Figure5GrowOnlyPessimistic(),
    Figure6OptimisticDynamic(),
)

RELAXED_VARIANTS: tuple[IteratorSpec, ...] = (
    Figure3PerRunImmutable(),
    Figure5PerRunGrowOnly(),
)


def spec_by_id(spec_id: str) -> IteratorSpec:
    for spec in ALL_FIGURES + RELAXED_VARIANTS:
        if spec.spec_id == spec_id:
            return spec
    raise KeyError(f"unknown spec id {spec_id!r}; known: "
                   f"{[s.spec_id for s in ALL_FIGURES + RELAXED_VARIANTS]}")
