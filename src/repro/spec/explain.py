"""Narrated conformance: why a trace passes, invocation by invocation.

``check_conformance`` answers *whether*; :func:`explain_trace` answers
*why* — for each invocation, which window state justifies the outcome
under the given figure, or why none does.  Both read the same walk
(:meth:`~repro.spec.iterspec.IteratorSpec.justify`): ``check_trace``
reports its unjustified entries, this narrates all of them.  Useful when
developing a new implementation against the specs (and in
``examples/spec_playground.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .iterspec import IteratorSpec, names_of
from .trace import IterationTrace

__all__ = ["InvocationExplanation", "explain_trace"]


@dataclass(frozen=True)
class InvocationExplanation:
    """One invocation's justification (or lack of one)."""

    index: int
    outcome: str
    justified: bool
    justifying_time: Optional[float]
    detail: str

    def __str__(self) -> str:
        mark = "✓" if self.justified else "✗"
        return f"  {mark} #{self.index} {self.outcome}: {self.detail}"


def explain_trace(trace: IterationTrace, spec: IteratorSpec) -> list[InvocationExplanation]:
    """Per-invocation justifications under ``spec`` (σ_first fixed as the
    walk fixes it); an unjustified entry carries the violation text
    ``check_trace`` reports for it."""
    explanations = []
    for inv, justified, state, s, reach in spec.justify(trace):
        if justified:
            detail = (f"justified by σ@{state.time:.3f} "
                      f"(s_{spec.membership_basis}={names_of(s)}, "
                      f"reachable={names_of(reach)})")
        else:
            detail = spec.mismatch_message(inv, s, reach)
        explanations.append(InvocationExplanation(
            inv.index, str(inv.outcome), justified,
            state.time if justified else None, detail))
    return explanations
