"""Trace conformance checking: ensures + constraint, combined verdicts.

This is the tool the paper's authors lacked in 1994: given a recorded
execution of an iterator implementation and one of the figure
specifications, decide mechanically whether the execution satisfies the
specification — and if not, produce the counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..store.elements import Element
from ..store.world import World
from .constraints import ConstraintViolationDetail, clip_history
from .iterspec import IteratorSpec, SpecViolationDetail
from .trace import IterationTrace

__all__ = ["ConformanceReport", "check_conformance"]

History = Sequence[tuple[float, frozenset[Element]]]


@dataclass
class ConformanceReport:
    """The verdict of checking one trace against one specification."""

    spec_id: str
    impl_name: str
    ensures_violations: list[SpecViolationDetail] = field(default_factory=list)
    constraint_violations: list[ConstraintViolationDetail] = field(default_factory=list)

    @property
    def conformant(self) -> bool:
        return not self.ensures_violations and not self.constraint_violations

    def summary(self) -> str:
        verdict = "CONFORMS" if self.conformant else "VIOLATES"
        detail = ""
        if not self.conformant:
            parts = []
            if self.ensures_violations:
                parts.append(f"{len(self.ensures_violations)} ensures")
            if self.constraint_violations:
                parts.append(f"{len(self.constraint_violations)} constraint")
            detail = f" ({', '.join(parts)} violation(s))"
        return f"{self.impl_name or 'trace'} vs {self.spec_id}: {verdict}{detail}"

    def counterexample(self) -> Optional[str]:
        """The first violation, human-readably (None if conformant)."""
        if self.ensures_violations:
            return str(self.ensures_violations[0])
        if self.constraint_violations:
            return str(self.constraint_violations[0])
        return None


def check_conformance(trace: IterationTrace, spec: IteratorSpec,
                      world: Optional[World] = None,
                      history: Optional[History] = None) -> ConformanceReport:
    """Full conformance: ensures clause + constraint clause.

    The constraint is evaluated over the collection's membership history
    *restricted to the trace's window* — the computation the client
    observed.  (The paper's constraint quantifies over whole
    computations; restricting to the window is what makes per-trace
    verdicts meaningful when several iterations with different
    tolerances share one world.)  A trace with no invocations has no
    window: nothing ran, so its constraint is judged over no history.
    """
    window = trace.window()
    if history is not None:
        history = clip_history(history, *window) if window is not None else []
    elif world is None:
        raise ValueError("check_conformance needs a world or an explicit history")
    elif window is None:
        history = []
    else:
        # clipped before merged: an audit pays for the entries it reads
        info = world.collection_info(trace.coll_id)
        history = info.merged_history(clip_history(info.history, *window))
    return ConformanceReport(
        spec_id=spec.spec_id,
        impl_name=trace.impl_name,
        ensures_violations=spec.check_trace(trace),
        constraint_violations=spec.constraint.check(history),
    )

