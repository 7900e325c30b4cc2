"""Executable Larch-style specifications of weak sets.

The paper's primary contribution, made runnable: the computation model
(states, histories, the object/value distinction), the special
constructs (``remembers`` history objects, ``constraint`` history
properties, ``suspends``/``returns``/``fails``, and the novel
``reachable`` function), the figure specifications as rows of one
table, and a trace conformance checker.  See DESIGN.md §3 for the
construct-to-module map.
"""

from .explain import InvocationExplanation, explain_trace
from .checker import ConformanceReport, check_conformance
from .constraints import (
    Constraint,
    GrowOnlyConstraint,
    ImmutableConstraint,
    PerRunConstraint,
    TrivialConstraint,
    per_run_grow_only,
    per_run_immutable,
)
from .figures import ALL_FIGURES, RELAXED_VARIANTS, spec_by_id
from .iterspec import (
    IteratorSpec,
    Justification,
    SpecViolationDetail,
    structural_violations,
)
from .render import render_all, render_spec
from .state import InvocationRecord, StateSnapshot
from .taxonomy import Classification, classify, taxonomy_table
from .termination import Failed, Outcome, Returned, Yielded
from .trace import IterationTrace, TraceRecorder

__all__ = [
    "ALL_FIGURES",
    "RELAXED_VARIANTS",
    "Classification",
    "ConformanceReport",
    "Constraint",
    "Failed",
    "GrowOnlyConstraint",
    "ImmutableConstraint",
    "InvocationExplanation",
    "InvocationRecord",
    "IterationTrace",
    "IteratorSpec",
    "Justification",
    "Outcome",
    "PerRunConstraint",
    "Returned",
    "SpecViolationDetail",
    "StateSnapshot",
    "TraceRecorder",
    "TrivialConstraint",
    "Yielded",
    "check_conformance",
    "classify",
    "explain_trace",
    "per_run_grow_only",
    "per_run_immutable",
    "render_all",
    "render_spec",
    "spec_by_id",
    "structural_violations",
    "taxonomy_table",
]
