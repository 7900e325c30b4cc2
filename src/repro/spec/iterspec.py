"""An ``elements`` specification as data, and the one walk that judges a
trace against it.

A :class:`IteratorSpec` is one point of the paper's design space — a
row over a five-word vocabulary:

* ``membership_basis`` — the ensures clause reads the set's value at
  the **first-state** (``s_first``; Figs 1, 3, 4) or at each
  invocation's **pre-state** (``s_pre``; Figs 5, 6);
* ``guard`` — the set that must still hold an unyielded element for the
  invocation to suspend: ``s`` or ``reachable(s)``;
* ``yields`` — the set the yielded element is drawn from.  Fig 6 guards
  on ``s`` but yields from ``reachable(s)``, which is exactly its
  blocking rule; Fig 1 never mentions ``reachable``;
* ``exhausted`` — what the clause requires once the guard set is used up;
* ``constraint`` — the history property the environment upholds.

``signals (failure)`` is not a sixth word: a specification signals
failure iff one of its branches says ``fails``.

Checking uses existential window semantics (see
:mod:`repro.spec.state`): an invocation conforms if **some** state
sampled during its window satisfies the clause; a first-basis trace
conforms if **some** state from the first invocation's window, fixed as
σ_first, makes every invocation conform.  :meth:`IteratorSpec.justify`
is the only place that walks those windows and the only caller of
``reachable(x_σ)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..store.elements import Element
from .constraints import Constraint
from .state import InvocationRecord, StateSnapshot
from .termination import Failed, Returned, Yielded
from .trace import IterationTrace

__all__ = ["IteratorSpec", "Justification", "SpecViolationDetail",
           "structural_violations", "names_of", "S", "REACHABLE",
           "RETURNS", "FAILS_IF_SHORT", "RETURNS_IF_ALL"]

Members = frozenset[Element]

#: the two sets a ``guard`` or ``yields`` entry can name
S = "s"
REACHABLE = "reachable(s)"
#: the three ``exhausted`` rules.  The last two differ only when
#: ``yielded ⊄ s`` (a yielded member has since been removed): Figs 3/4
#: then return, Fig 5 fails.
RETURNS = "returns"
FAILS_IF_SHORT = "fails if yielded ⊊ s else returns"
RETURNS_IF_ALL = "returns if yielded = s else fails"


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
        if inv.yielded_pre is not expected and inv.yielded_pre != expected:
            violations.append(SpecViolationDetail(
                inv.index,
                f"yielded_pre {names_of(inv.yielded_pre)} does not continue the "
                f"history object (expected {names_of(expected)})"))
        if isinstance(inv.outcome, Yielded):
            e = inv.outcome.element
            pre, post = inv.yielded_pre, inv.yielded_post
            duplicate = e in pre
            if duplicate:
                violations.append(SpecViolationDetail(
                    inv.index, f"duplicate yield of {e}"))
            # post = pre ∪ {e}, without building the union: as large as
            # it, holding e, and holding all of pre
            if not (len(post) == len(pre) + (not duplicate) and e in post
                    and pre <= post):
                violations.append(SpecViolationDetail(
                    inv.index,
                    "yielded_post ≠ yielded_pre ∪ {e}"))
        else:
            terminated = True
            if (inv.yielded_post is not inv.yielded_pre
                    and inv.yielded_post != inv.yielded_pre):
                violations.append(SpecViolationDetail(
                    inv.index, "yielded changed on a non-yielding invocation"))
        expected = inv.yielded_post
    return violations


class Justification(NamedTuple):
    """How one invocation fares under the best σ_first.

    ``state`` is the first window state whose clause the outcome
    satisfies — or, when none does (``justified`` false), the exit
    state, where the counterexample is read.  ``s`` is the basis value
    there (σ_first's, or the state's own) and ``reach`` is
    ``reachable(s)`` in that state.
    """

    invocation: InvocationRecord
    justified: bool
    state: StateSnapshot
    s: Members
    reach: Members


@dataclass(frozen=True)
class IteratorSpec:
    """One ``elements`` specification: a row of :mod:`repro.spec.figures`."""

    spec_id: str
    paper_figure: str
    membership_basis: str     # "first" | "pre"
    guard: str                # S | REACHABLE
    yields: str               # S | REACHABLE
    exhausted: str            # RETURNS | FAILS_IF_SHORT | RETURNS_IF_ALL
    constraint: Constraint
    title: str

    def __post_init__(self) -> None:
        for word, known in ((self.membership_basis, ("first", "pre")),
                            (self.guard, (S, REACHABLE)),
                            (self.yields, (S, REACHABLE)),
                            (self.exhausted,
                             (RETURNS, FAILS_IF_SHORT, RETURNS_IF_ALL))):
            if word not in known:
                raise ValueError(
                    f"{self.spec_id}: {word!r} is not one of {known}")

    @property
    def allows_failure(self) -> bool:
        """Whether the signature carries ``signals (failure)``."""
        return self.exhausted != RETURNS

    # -- the ensures clause -------------------------------------------------
    def required_outcome(self, s: Members, reach: Members,
                         yielded_pre: Members) -> tuple[str, Members]:
        """Evaluate the ensures clause's condition at one state.

        Returns (kind, allowed) where kind is ``"suspends"``,
        ``"returns"``, or ``"fails"``, and — for suspends — ``allowed``
        is the set of elements the invocation may yield.
        """
        # The conditions are read element-wise, following the prose ("if
        # there are still elements to yield"; "a failure occurs if
        # everything reachable has been yielded").  The figures' literal
        # ``yielded ⊊ reachable(s)`` coincides with ``reachable −
        # yielded ≠ ∅`` whenever yielded elements stay reachable — the
        # paper's implicit assumption — but the literal form leaves no
        # satisfiable branch once a yielded element's home later becomes
        # unreachable, so the element-wise reading is the only checkable
        # one.
        if not (s if self.guard == S else reach) <= yielded_pre:
            return "suspends", (s if self.yields == S else reach) - yielded_pre
        return self._exhausted_kind(s, yielded_pre), frozenset()

    def _exhausted_kind(self, s: Members, yielded_pre: Members) -> str:
        """What the clause requires once the guard set is used up."""
        if self.exhausted == FAILS_IF_SHORT and yielded_pre < s:
            return "fails"
        if self.exhausted == RETURNS_IF_ALL and yielded_pre != s:
            return "fails"
        return "returns"

    def permits(self, inv: InvocationRecord, s: Members, reach: Members) -> bool:
        """Does the clause, evaluated at (s, reach), allow ``inv``'s outcome?

        :meth:`required_outcome` read without building its sets: the
        guard set not inside ``yielded_pre`` means suspends, and the
        element must then be new and in the yields set."""
        yielded_pre, outcome = inv.yielded_pre, inv.outcome
        if not (s if self.guard == S else reach) <= yielded_pre:
            return (isinstance(outcome, Yielded)
                    and outcome.element not in yielded_pre
                    and outcome.element in (s if self.yields == S else reach))
        if self._exhausted_kind(s, yielded_pre) == "returns":
            return isinstance(outcome, Returned)
        return isinstance(outcome, Failed)

    def mismatch_message(self, inv: InvocationRecord, s: Members,
                         reach: Members) -> str:
        """The counterexample text for an unjustified ``inv``, read at
        its exit state's (s, reach)."""
        kind, allowed = self.required_outcome(s, reach, inv.yielded_pre)
        want = kind if kind != "suspends" else (
            f"suspends yielding one of {names_of(allowed)}"
        )
        return (f"no window state justifies outcome {inv.outcome}; e.g. at the exit "
                f"state the clause requires {want} "
                f"(s={names_of(s)}, reachable={names_of(reach)}, "
                f"yielded={names_of(inv.yielded_pre)})")

    # -- checking --------------------------------------------------------
    def justify(self, trace: IterationTrace) -> list[Justification]:
        """Every invocation's :class:`Justification`, in order.

        A first-basis spec fixes σ_first as the candidate (a state of
        invocation 0's window) that leaves the fewest invocations
        unjustified, ties to the earliest; a pre-basis spec reads each
        state's own value.
        """
        if not trace.invocations:
            return []
        # reachable(x_σ), once per distinct (reachable nodes, live
        # replica copies, x) of this walk: a drain's windows revisit the same few states hundreds
        # of times.  Keyed by value, and gone when the walk returns.
        memo: dict[tuple[frozenset, frozenset, Members], Members] = {}

        def reachable(snap: StateSnapshot, x: Members) -> Members:
            key = (snap.reachable_nodes, snap.live_replicas, x)
            found = memo.get(key)
            if found is None:
                found = memo[key] = snap.reachable_of(x)
            return found

        def walk(s_first: Optional[Members]) -> tuple[list[Justification], int]:
            found, unjustified = [], 0
            for inv in trace.invocations:
                justified = True
                for snap in inv.snapshots:
                    s = snap.members if s_first is None else s_first
                    reach = reachable(snap, s)
                    if self.permits(inv, s, reach):
                        break
                else:
                    justified = False
                    unjustified += 1
                    snap = inv.exit_snapshot
                    s = snap.members if s_first is None else s_first
                    reach = reachable(snap, s)
                found.append(Justification(inv, justified, snap, s, reach))
            return found, unjustified

        if self.membership_basis == "pre":
            return walk(None)[0]
        best: Optional[tuple[list[Justification], int]] = None
        for first in trace.first_candidates or trace.invocations[0].snapshots:
            current = walk(first.members)
            if best is None or current[1] < best[1]:
                best = current
            if not best[1]:
                break
        return best[0]

    def check_trace(self, trace: IterationTrace) -> list[SpecViolationDetail]:
        """Ensures-clause violations (empty list = conformant): the
        structural ones, then the walk's unjustified invocations."""
        return structural_violations(trace) + [
            SpecViolationDetail(j.invocation.index, self.mismatch_message(
                j.invocation, j.s, j.reach))
            for j in self.justify(trace) if not j.justified]

    def __repr__(self) -> str:
        return f"IteratorSpec({self.spec_id})"


def names_of(elements: frozenset[Element]) -> str:
    return "{" + ", ".join(sorted(e.name for e in elements)) + "}"
