"""``constraint`` clauses: history properties over computations.

"The predicate we write in this clause states a history property of all
computations involving any object of type T … constraint P(x_i, x_j)
stands for the predicate, for all computations, ∀ x:T ∀ 1 ≤ i < n,
1 < j ≤ n : i < j ⇒ P(x_i, x_j)."

A constraint here checks a *membership history* — the sequence of
(time, value) pairs the :class:`~repro.store.world.World` records for a
collection.  Because the figures' predicates are reflexive-transitive
(equality, ⊆), checking consecutive pairs suffices for the pairwise
∀ i<j property; :meth:`Constraint.check_pairwise` verifies that
reduction on demand (the property tests exercise it).

Section 3.1/3.3 also sketch *per-run* relaxations ("mutations may occur
between different uses of the iterator, but not between invocations of
any one use"); such a constraint is its inner constraint over the one
run's window that the checker clips the history to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TypeVar

from ..store.elements import Element

__all__ = [
    "clip_history",
    "Constraint",
    "TrivialConstraint",
    "ImmutableConstraint",
    "GrowOnlyConstraint",
    "PerRunConstraint",
    "per_run_immutable",
    "per_run_grow_only",
]

History = Sequence[tuple[float, frozenset[Element]]]
Entry = TypeVar("Entry")


def clip_history(history: Sequence[tuple[float, Entry]], t_first: float,
                 t_last: float) -> list[tuple[float, Entry]]:
    """History entries in force during [t_first, t_last]: the last one at
    or before ``t_first``, then everything recorded up to ``t_last``
    (values, or the partition views a world records them as)."""
    before = [entry for entry in history if entry[0] <= t_first]
    inside = [entry for entry in history if t_first < entry[0] <= t_last]
    return before[-1:] + inside


@dataclass(frozen=True)
class ConstraintViolationDetail:
    """One violated pair (σ_i, σ_j) with a human-readable explanation."""

    time_i: float
    time_j: float
    message: str

    def __str__(self) -> str:
        return f"[σ@{self.time_i:.3f} vs σ@{self.time_j:.3f}] {self.message}"


class Constraint:
    """A history property P(s_i, s_j) for all i < j."""

    name = "constraint"
    formula = "P(s_i, s_j)"

    def holds_pair(self, s_i: frozenset[Element], s_j: frozenset[Element]) -> bool:
        raise NotImplementedError

    def check(self, history: History) -> list[ConstraintViolationDetail]:
        """Check consecutive pairs (sufficient for transitive predicates)."""
        violations = []
        for (t_i, s_i), (t_j, s_j) in zip(history, history[1:]):
            if not self.holds_pair(s_i, s_j):
                violations.append(ConstraintViolationDetail(
                    t_i, t_j, self._explain(s_i, s_j)
                ))
        return violations

    def check_pairwise(self, history: History) -> list[ConstraintViolationDetail]:
        """Check the full ∀ i<j quantification (O(n²); for validation)."""
        violations = []
        for i in range(len(history)):
            for j in range(i + 1, len(history)):
                t_i, s_i = history[i]
                t_j, s_j = history[j]
                if not self.holds_pair(s_i, s_j):
                    violations.append(ConstraintViolationDetail(
                        t_i, t_j, self._explain(s_i, s_j)
                    ))
        return violations

    def _explain(self, s_i: frozenset[Element], s_j: frozenset[Element]) -> str:
        return (f"{self.name} violated: "
                f"s_i={sorted(str(e) for e in s_i)} "
                f"s_j={sorted(str(e) for e in s_j)}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.formula})"


class TrivialConstraint(Constraint):
    """``constraint true`` — the set may change arbitrarily (Figs 4, 6)."""

    name = "true"
    formula = "true"

    def holds_pair(self, s_i, s_j) -> bool:
        return True


class ImmutableConstraint(Constraint):
    """``constraint s_i = s_j`` — the set never changes (Figs 1, 3)."""

    name = "immutable"
    formula = "s_i = s_j"

    def holds_pair(self, s_i, s_j) -> bool:
        return s_i == s_j


class GrowOnlyConstraint(Constraint):
    """``constraint s_i ⊆ s_j`` — the set only grows (Fig 5)."""

    name = "grow-only"
    formula = "s_i ⊆ s_j"

    def holds_pair(self, s_i, s_j) -> bool:
        return s_i <= s_j


class PerRunConstraint(Constraint):
    """§3.1's relaxation: the inner constraint binds only *during a run*.

    "constraint ∀ i < k < j : (terminates_i ≠ suspend ∧ terminates_j ≠
    suspend ∧ terminates_k = suspend) ⇒ (s_i = s_k = s_j)" — i.e., the
    set must satisfy the inner predicate between the first-state and
    last-state of any one use of the iterator, and may change freely
    between uses.
    """

    def __init__(self, inner: Constraint):
        self.inner = inner
        self.name = f"per-run {inner.name}"
        self.formula = f"during any run: {inner.formula}"

    def check(self, history: History) -> list[ConstraintViolationDetail]:
        """The inner constraint over ``history``, which is one run's
        window: :func:`~repro.spec.checker.check_conformance` clips every
        history to its trace's [first-state, last-state] before judging."""
        return self.inner.check(history)


def per_run_immutable() -> PerRunConstraint:
    """§3.1: immutable during any one run, free to change between runs."""
    return PerRunConstraint(ImmutableConstraint())


def per_run_grow_only() -> PerRunConstraint:
    """§3.3: grow-only during any one run (the ghost protocol's contract)."""
    return PerRunConstraint(GrowOnlyConstraint())
