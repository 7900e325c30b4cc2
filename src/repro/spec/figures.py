"""The paper's specification figures: seven rows of one table.

Each row is a point of the design space in the vocabulary of
:mod:`repro.spec.iterspec`; ``required_outcome`` interprets it,
``render_spec`` prints its Larch text and ``classify`` places it in the
query taxonomy.  The transcription is deliberately literal — strict
versus non-strict subsets and the order of the exhaustion branches
follow the figures exactly — because the whole point of the
reproduction is that these *are* the specifications.

What the rows say, figure by figure:

* Fig 1 ignores failures: ``reachable`` is not in its language.
* Fig 3 adds ``reachable`` and a ``fails`` branch; "the only visual
  difference between the specification in Figure 4 and the previous one
  in Figure 3 is the change in the constraint clause".
* Fig 5 moves the basis to the pre-state and fails as soon as a known
  member cannot be reached.
* Fig 6 has no ``signals (failure)``: the optimistic iterator "may
  never return if a failure is detected" — blocking, not failing.
* §3.1 and §3.3 relax the constraints of Figs 3 and 5 to bind only
  between the first-state and last-state of any one run ("mutations may
  occur between different uses of the iterator, but not between
  invocations of any one use"); the ghost protocol
  (``policy="grow-during-run"``) is the implementation technique the
  paper sketches for the latter.
"""

from __future__ import annotations

from .constraints import (
    GrowOnlyConstraint,
    ImmutableConstraint,
    TrivialConstraint,
    per_run_grow_only,
    per_run_immutable,
)
from .iterspec import (
    FAILS_IF_SHORT,
    REACHABLE,
    RETURNS,
    RETURNS_IF_ALL,
    S,
    IteratorSpec,
)

__all__ = ["ALL_FIGURES", "RELAXED_VARIANTS", "spec_by_id"]

#   id, figure | basis, guard, yields, exhausted | constraint | title
ALL_FIGURES: tuple[IteratorSpec, ...] = (
    IteratorSpec("fig1", "Figure 1", "first", S, S, RETURNS,
                 ImmutableConstraint(), "Immutable set (failures ignored)"),
    IteratorSpec("fig3", "Figure 3", "first", REACHABLE, REACHABLE, FAILS_IF_SHORT,
                 ImmutableConstraint(), "Immutable set with failures"),
    IteratorSpec("fig4", "Figure 4", "first", REACHABLE, REACHABLE, FAILS_IF_SHORT,
                 TrivialConstraint(),
                 "Mutable set, loss of some mutations (first-state snapshot)"),
    IteratorSpec("fig5", "Figure 5", "pre", REACHABLE, REACHABLE, RETURNS_IF_ALL,
                 GrowOnlyConstraint(), "Growing-only set, pessimistic"),
    IteratorSpec("fig6", "Figure 6", "pre", S, REACHABLE, RETURNS,
                 TrivialConstraint(),
                 "Growing and shrinking set, optimistic (dynamic sets)"),
)

RELAXED_VARIANTS: tuple[IteratorSpec, ...] = (
    IteratorSpec("fig3-per-run", "Figure 3 (relaxed, §3.1)",
                 "first", REACHABLE, REACHABLE, FAILS_IF_SHORT,
                 per_run_immutable(),
                 "Immutable during a run, mutable between runs (§3.1)"),
    IteratorSpec("fig5-per-run", "Figure 5 (relaxed, §3.3)",
                 "pre", REACHABLE, REACHABLE, RETURNS_IF_ALL,
                 per_run_grow_only(),
                 "Grow-only during a run, mutable between runs (§3.3)"),
)


def spec_by_id(spec_id: str) -> IteratorSpec:
    for spec in ALL_FIGURES + RELAXED_VARIANTS:
        if spec.spec_id == spec_id:
            return spec
    raise KeyError(f"unknown spec id {spec_id!r}; known: "
                   f"{[s.spec_id for s in ALL_FIGURES + RELAXED_VARIANTS]}")
