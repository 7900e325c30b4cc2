"""The event scheduler: the data structure under the kernel's event loop.

The kernel's ordering contract is strict ``(time, seq)`` order — two
actions scheduled for the same instant run in scheduling order, and
determinism never depends on container internals.

:class:`InstantHeap` keys the queue by instant: a heap of the distinct
pending times, and per time one list of its entries in seq order.  A
push to a pending instant is one dict hit and one append; a new instant
is one heap push of a float (C-speed comparisons, no Python ``__lt__``);
and a whole instant reaches the kernel in one C-level ``extend``.  The
observable event order is that of one global ``(time, seq)``-ordered
queue for any schedule (property-tested in ``tests/test_sim_sched.py``
against a sorted-list reference and the frozen seed kernel's binary
heap).

The kernel drives three methods: ``push(entry)``, ``next_instant(out,
until)`` (drop cancelled heads, and — unless the next instant lies
beyond ``until`` — move its entries into ``out``, in seq order; returns
the time, or ``None`` for an empty queue) and ``requeue(entries)`` (put
not-yet-run entries back, preserving their stamps, when ``run()`` stops
mid-batch).  One call per dispatched instant.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from operator import attrgetter
from typing import Callable, Iterable, Optional

__all__ = ["_Scheduled", "InstantHeap"]

_SEQ = attrgetter("seq")


class _Scheduled:
    """An action to run at virtual ``time``; ties broken by ``seq``."""

    __slots__ = ("time", "seq", "action", "cancelled")

    def __init__(self, time: float, seq: int, action: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class InstantHeap:
    """A heap of distinct pending times, each holding one seq-ordered
    list of entries.

    Ordering invariant: instants pop in time order, and within an
    instant append order is seq order, because every *new* entry carries
    a ``seq`` larger than anything pending (the kernel's sequence
    counter is global and monotonic).  The one path that puts *old*
    entries back — ``requeue`` of an interrupted batch — inserts them by
    seq, so the invariant survives it.
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
        for entry in entries:
            group = self._groups.get(entry.time)
            if group is None:
                self.push(entry)
            else:
                insort(group, entry, key=_SEQ)
                self._count += 1

    def next_instant(self, out: list,
                     until: Optional[float] = None) -> Optional[float]:
        """The time of the next live entry (``None``: the queue is
        empty), with every entry stamped exactly that time appended to
        ``out`` in seq order — unless that time is beyond ``until``,
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
