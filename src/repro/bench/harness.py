"""The run vocabulary the experiments share: drain, settle, average.

An ``exp_*.py`` builds its own world and its own weak set — that is what
it varies — and then does one of three things every experiment does the
same way.  The bounds and steps below are simulated seconds and reach the
tables, so they are always the caller's.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..wan.workload import Scenario
from ..weaksets.iterator import DrainResult
from .metrics import summarize

__all__ = ["drain", "heal_and_settle", "mean_or_nan"]


def drain(scenario: Scenario, iterator,
          max_yields: Optional[int] = None) -> DrainResult:
    """Run ``iterator`` (a set's ``elements()``, or a ``select`` over it)
    to termination on the scenario's kernel, then stop injecting faults:
    the one body every experiment drain goes through."""
    drained = scenario.kernel.run_process(iterator.drain(max_yields))
    if scenario.injector is not None:
        scenario.injector.stop()
    return drained


def heal_and_settle(scenario: Scenario, bound: float, step: float) -> list[str]:
    """Stop injecting faults, recover every node that is down, then run
    the kernel ``step`` at a time until ``check_invariants()`` is clean or
    ``bound`` has passed.  Returns the problems still standing."""
    if scenario.injector is not None:
        scenario.injector.stop()
    net, kernel = scenario.net, scenario.kernel
    for node in sorted(net.nodes):
        if not net.node(node).up:
            net.recover(node)
    deadline = kernel.now + bound
    while kernel.now < deadline:
        kernel.run(until=min(kernel.now + step, deadline))
        if not scenario.world.check_invariants():
            break
    return scenario.world.check_invariants()


def mean_or_nan(values: Iterable[float]) -> float:
    """The mean over the seeds that produced a value; NaN (a table's
    ``-``) when none did."""
    summary = summarize(values)
    return summary.mean if summary else float("nan")
