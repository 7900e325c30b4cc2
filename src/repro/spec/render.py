"""Render figure specifications back into the paper's notation.

Mostly for humans: ``print(render_spec(spec_by_id("fig5")))`` produces
the Larch-style block of the corresponding figure, printed from the same
row ``required_outcome`` interprets (:mod:`repro.spec.figures`) — so
what a row *says* and what it *checks* cannot drift apart.
"""

from __future__ import annotations

from .figures import ALL_FIGURES
from .iterspec import FAILS_IF_SHORT, RETURNS, S, IteratorSpec

__all__ = ["render_spec", "render_all"]


def _ensures_lines(spec: IteratorSpec) -> list[str]:
    s = f"s_{spec.membership_basis}"
    yields = s if spec.yields == S else f"reachable({s})"
    if spec.guard == spec.yields:
        # one set both guards and yields: the figures' ``⊊`` form, whose
        # last else-branch can only mean yielded_pre = s
        lines = [f"ensures if yielded_pre ⊊ {yields}",
                 "        then yielded_post − yielded_pre = {e}",
                 f"             ∧ yielded_post ⊆ {s}"]
        done = f"   % yielded_pre = {s}"
    else:
        lines = [f"ensures if ∃ e ∈ {s} : e ∉ yielded_pre",
                 "        then yielded_post − yielded_pre = {e}"]
        done = ""
    picked = f"{s} − yielded_pre" if spec.yields == S else yields
    lines.append(f"             ∧ e ∈ {picked} ∧ suspends")
    if spec.exhausted == RETURNS:
        return lines + [f"        else returns{done}"]
    if spec.exhausted == FAILS_IF_SHORT:
        return lines + [f"        else if yielded_pre = {yields}",
                        f"                ∧ yielded_pre ⊊ {s}",
                        "        then fails",
                        f"        else returns{done}"]
    return lines + [f"        else if yielded_pre = {s} then returns",
                    "        else fails"]


def render_spec(spec: IteratorSpec) -> str:
    """The paper-style text of one figure specification."""
    signals = " signals (failure)" if spec.allows_failure else ""
    lines = [
        f"% {spec.paper_figure}: {spec.title}",
        f"constraint {spec.constraint.formula}",
        f"elements = iter (s: set) yields (e: elem){signals}",
        "  remembers yielded: set initially {}",
    ]
    lines.extend(f"  {line}" for line in _ensures_lines(spec))
    return "\n".join(lines)


def render_all() -> str:
    """All five figures, paper order."""
    return "\n\n".join(render_spec(spec) for spec in ALL_FIGURES)

