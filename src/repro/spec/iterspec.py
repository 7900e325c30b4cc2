"""The iterator-specification machinery shared by the four figures.

A :class:`IteratorSpec` packages

* a ``constraint`` (history property on the set's value),
* a *membership basis* — whether the ensures clause reads the set's
  value at the **first-state** (``s_first``; Figs 1, 3, 4) or at each
  invocation's **pre-state** (``s_pre``; Figs 5, 6),
* an ``ensures`` clause, expressed as :meth:`check_branch`, which maps
  (s, reach, yielded_pre) to the *required* outcome shape.

Checking uses existential window semantics (see
:mod:`repro.spec.state`): an invocation conforms if **some** state
sampled during its window satisfies the clause; a first-basis trace
conforms if **some** state from the first invocation's window, fixed as
σ_first, makes every invocation conform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..store.elements import Element
from .constraints import Constraint
from .state import InvocationRecord, StateSnapshot
from .termination import Failed, Returned, Yielded
from .trace import IterationTrace

__all__ = ["IteratorSpec", "SpecViolationDetail", "structural_violations"]

Members = frozenset[Element]
#: ``reachable(x_σ)`` for a sampled state σ and a member set x
Reachable = Callable[[StateSnapshot, Members], Members]


@dataclass(frozen=True)
class SpecViolationDetail:
    """One invocation that cannot be justified by any window state."""

    invocation: int
    message: str

    def __str__(self) -> str:
        return f"invocation #{self.invocation}: {self.message}"


def structural_violations(trace: IterationTrace) -> list[SpecViolationDetail]:
    """Protocol well-formedness, independent of any particular figure.

    Checks the ``remembers yielded`` discipline: the history object
    starts empty, grows by exactly the yielded element on suspends, is
    unchanged on returns/fails, never yields duplicates, and nothing
    follows termination.
    """
    violations = []
    expected: frozenset[Element] = frozenset()
    terminated = False
    for inv in trace.invocations:
        if terminated:
            violations.append(SpecViolationDetail(
                inv.index, "invocation after the iterator terminated"))
        if inv.yielded_pre != expected:
            violations.append(SpecViolationDetail(
                inv.index,
                f"yielded_pre {_names(inv.yielded_pre)} does not continue the "
                f"history object (expected {_names(expected)})"))
        if isinstance(inv.outcome, Yielded):
            e = inv.outcome.element
            if e in inv.yielded_pre:
                violations.append(SpecViolationDetail(
                    inv.index, f"duplicate yield of {e}"))
            if inv.yielded_post != inv.yielded_pre | {e}:
                violations.append(SpecViolationDetail(
                    inv.index,
                    "yielded_post ≠ yielded_pre ∪ {e}"))
        else:
            terminated = True
            if inv.yielded_post != inv.yielded_pre:
                violations.append(SpecViolationDetail(
                    inv.index, "yielded changed on a non-yielding invocation"))
        expected = inv.yielded_post
    return violations


class IteratorSpec:
    """Base class for the figures' ``elements`` specifications."""

    spec_id = "spec"
    title = "unnamed specification"
    paper_figure = ""
    membership_basis = "pre"          # "pre" (Figs 5, 6) or "first" (1, 3, 4)
    allows_failure = True             # Figs 1, 6 have no signals(failure)
    constraint: Constraint

    # -- the ensures clause -------------------------------------------------
    def required_outcome(self, s: frozenset[Element], reach: frozenset[Element],
                         yielded_pre: frozenset[Element]) -> tuple[str, frozenset[Element]]:
        """Evaluate the ensures clause's condition at one state.

        Returns (kind, allowed) where kind is ``"suspends"``,
        ``"returns"``, or ``"fails"``, and — for suspends — ``allowed``
        is the set of elements the invocation may yield.
        """
        raise NotImplementedError

    # -- checking --------------------------------------------------------
    def check_trace(self, trace: IterationTrace) -> list[SpecViolationDetail]:
        """Ensures-clause violations (empty list = conformant).

        Structural violations are always included; figure-specific
        violations use the existential window semantics.
        """
        violations = structural_violations(trace)
        # reachable(x_σ), once per distinct (reachable nodes, x) of this
        # check: a drain's windows revisit the same few states hundreds
        # of times.  Keyed by value, and gone when the check returns.
        memo: dict[tuple[frozenset, Members], Members] = {}

        def reachable(snap: StateSnapshot, x: Members) -> Members:
            key = (snap.reachable_nodes, x)
            found = memo.get(key)
            if found is None:
                found = memo[key] = snap.reachable_of(x)
            return found

        if self.membership_basis == "first":
            violations.extend(self._check_first_basis(trace, reachable))
        else:
            violations.extend(self._check_pre_basis(trace, reachable))
        return violations

    def _check_pre_basis(self, trace: IterationTrace,
                         reachable: Reachable) -> list[SpecViolationDetail]:
        violations = []
        for inv in trace.invocations:
            ok = any(
                self._invocation_matches(inv, snap.members,
                                         reachable(snap, snap.members))
                for snap in inv.snapshots
            )
            if not ok:
                snap = inv.exit_snapshot
                violations.append(SpecViolationDetail(
                    inv.index, self._mismatch_message(
                        inv, snap.members, reachable(snap, snap.members))))
        return violations

    def _check_first_basis(self, trace: IterationTrace,
                           reachable: Reachable) -> list[SpecViolationDetail]:
        if not trace.invocations:
            return []
        candidates = trace.first_candidates or trace.invocations[0].snapshots
        best: Optional[list[SpecViolationDetail]] = None
        for first in candidates:
            s_first = first.members
            current = []
            for inv in trace.invocations:
                ok = any(
                    self._invocation_matches(inv, s_first, reachable(snap, s_first))
                    for snap in inv.snapshots
                )
                if not ok:
                    snap = inv.exit_snapshot
                    current.append(SpecViolationDetail(
                        inv.index,
                        self._mismatch_message(inv, s_first, reachable(snap, s_first))))
            if not current:
                return []
            if best is None or len(current) < len(best):
                best = current
        return best or []

    def _invocation_matches(self, inv: InvocationRecord, s: frozenset[Element],
                            reach: frozenset[Element]) -> bool:
        kind, allowed = self.required_outcome(s, reach, inv.yielded_pre)
        outcome = inv.outcome
        if kind == "suspends":
            return isinstance(outcome, Yielded) and outcome.element in allowed
        if kind == "returns":
            return isinstance(outcome, Returned)
        if kind == "fails":
            return self.allows_failure and isinstance(outcome, Failed)
        raise AssertionError(f"unknown outcome kind {kind!r}")

    def _mismatch_message(self, inv: InvocationRecord, s: frozenset[Element],
                          reach: frozenset[Element]) -> str:
        kind, allowed = self.required_outcome(s, reach, inv.yielded_pre)
        want = kind if kind != "suspends" else (
            f"suspends yielding one of {_names(allowed)}"
        )
        return (f"no window state justifies outcome {inv.outcome}; e.g. at the exit "
                f"state the clause requires {want} "
                f"(s={_names(s)}, reachable={_names(reach)}, "
                f"yielded={_names(inv.yielded_pre)})")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec_id})"


def _names(elements: frozenset[Element]) -> str:
    return "{" + ", ".join(sorted(e.name for e in elements)) + "}"
