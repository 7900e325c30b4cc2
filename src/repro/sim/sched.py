"""The event scheduler: the data structure under the kernel's event loop.

The kernel's ordering contract is time order, and within an instant
scheduling order — two actions scheduled for the same instant run in
the order they were scheduled, and determinism never depends on
container internals.  No entry carries a stamp for it: the order of a
time's list *is* the order its entries were pushed.

:class:`InstantHeap` keys the queue by instant: a heap of the distinct
pending times, and per time one list of its entries in push order.  A
push to a pending instant is one dict hit and one append; a new instant
is one heap push of a float (C-speed comparisons, no Python ``__lt__``);
and a whole instant reaches the kernel in one C-level ``extend``.  The
observable event order is that of the frozen seed kernel's
``(time, seq)``-ordered binary heap for any schedule (property-tested
in ``tests/test_sim_sched.py``).

An entry is either a :class:`_Scheduled` callable (a delivery, a
timer, a ``call_soon``) or a :class:`~repro.sim.process.Process`, which
is its own entry: the heap reads only an entry's ``time`` (at push) and
``cancelled`` (a process's is the class constant ``False``).

The kernel drives three methods: ``push(entry)``, ``next_instant(out,
until)`` (drop cancelled heads, and — unless the next instant lies
beyond ``until`` — move its entries into ``out``, in push order; returns
the time, or ``None`` for an empty queue) and ``requeue(entries)`` (put
not-yet-run entries back, in order, when ``run()`` stops mid-batch).
One call per dispatched instant.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Iterable, Optional

__all__ = ["_Scheduled", "InstantHeap"]


class _Scheduled:
    """A callable to run at virtual ``time``; ties go by push order."""

    __slots__ = ("time", "action", "cancelled")

    def __init__(self, time: float, action: Callable[[], None]):
        self.time = time
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class InstantHeap:
    """A heap of distinct pending times, each holding its entries in
    push order.

    Ordering invariant: instants pop in time order, and within an
    instant an entry pushed earlier runs earlier.  The one path that
    puts *old* entries back — ``requeue`` of an interrupted batch —
    finds no list at their instant (see there), so the invariant
    survives it.
    """

    __slots__ = ("_times", "_groups", "_count")

    def __init__(self) -> None:
        self._times: list[float] = []
        self._groups: dict[float, list[_Scheduled]] = {}
        self._count = 0

    def push(self, entry: _Scheduled) -> None:
        when = entry.time
        group = self._groups.get(when)
        if group is None:
            self._groups[when] = [entry]
            heappush(self._times, when)
        else:
            group.append(entry)
        self._count += 1

    def requeue(self, entries: Iterable[_Scheduled]) -> None:
        """Put back, in order, the entries of an interrupted batch.

        A plain push each is exact: while a batch at instant T is
        dispatched, every schedule at T joins the live batch, so when
        ``run()`` requeues the rest of it no entry at T is pending here,
        and the requeued ones go back ahead of anything pushed later."""
        for entry in entries:
            self.push(entry)

    def next_instant(self, out: list,
                     until: Optional[float] = None) -> Optional[float]:
        """The time of the next live entry (``None``: the queue is
        empty), with every entry due exactly then appended to ``out``
        in push order — unless that time is beyond ``until``,
        when nothing is consumed and the caller sees only how far away
        the next event is.  Cancelled entries past the first live one
        go out too: the kernel skips them."""
        times = self._times
        groups = self._groups
        while times:
            when = times[0]
            group = groups[when]
            if group[0].cancelled:
                dead = 1
                size = len(group)
                while dead < size and group[dead].cancelled:
                    dead += 1
                self._count -= dead
                if dead == size:
                    # Nothing live at this instant: the clock never
                    # reaches it.
                    heappop(times)
                    del groups[when]
                    continue
                del group[:dead]
            if until is not None and when > until:
                return when
            heappop(times)
            del groups[when]
            out.extend(group)
            self._count -= len(group)
            return when
        return None

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return (f"InstantHeap(pending={self._count}, "
                f"instants={len(self._times)})")
