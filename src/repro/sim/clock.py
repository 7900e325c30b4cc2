"""Virtual time for the discrete-event kernel.

Simulated time is a float number of *seconds*.  Nothing in the simulator
ever consults the wall clock; a run is a pure function of its inputs.
"""

from __future__ import annotations

from ..errors import SimulationError

__all__ = ["Clock"]


class Clock:
    """A monotonically non-decreasing virtual clock.

    Only the kernel advances the clock (through :meth:`advance_to`);
    user code reads :attr:`now` (or ``kernel.now``).
    """

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise SimulationError(f"clock cannot start at negative time {start}")
        #: current virtual time in seconds — a plain attribute, read on
        #: every event and every message; written by :meth:`advance_to`
        self.now = float(start)

    def advance_to(self, t: float) -> None:
        """Move the clock forward to ``t``.  Moving backwards is a bug."""
        if t < self.now:
            raise SimulationError(
                f"clock would move backwards: {self.now} -> {t}"
            )
        self.now = t

    def __repr__(self) -> str:
        return f"Clock(now={self.now:.6f})"
