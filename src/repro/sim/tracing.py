"""Structured trace log for simulations.

The trace is a list of timestamped records.  It serves two purposes:

* debugging (human-readable dump of what the simulation did), and
* the specification checker's *computation history* — the sequence of
  states the paper calls σ₀ S₁ σ₁ … is reconstructed from mutation
  records emitted by the object store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .clock import Clock

__all__ = ["TraceRecord", "TraceLog"]


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped simulation event."""

    time: float
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.time:10.6f}] {self.kind:<16} {detail}"


class TraceLog:
    """Append-only event log; cheap no-op when disabled.

    Subscribers (e.g., the spec framework's constraint monitors) can
    register callbacks that see every record as it is appended,
    regardless of whether recording-for-dump is enabled.
    """

    def __init__(self, enabled: bool = False, clock: Optional["Clock"] = None):
        self.enabled = enabled
        self._clock = clock
        self._records: list[TraceRecord] = []
        self._subscribers: list[Callable[[TraceRecord], None]] = []

    @property
    def active(self) -> bool:
        """Will :meth:`record` keep (or hand on) a record right now?
        Hot callers check this before *formatting* a record's fields."""
        return self.enabled or bool(self._subscribers)

    def record(self, kind: str, **fields: Any) -> None:
        # ``not self.active``, spelled out: the kernel calls this once per
        # process finish, where a property call would show in calls/op.
        if not self.enabled and not self._subscribers:
            return
        now = self._clock.now if self._clock is not None else 0.0
        rec = TraceRecord(time=now, kind=kind, fields=fields)
        if self.enabled:
            self._records.append(rec)
        for callback in self._subscribers:
            callback(rec)

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> Callable[[], None]:
        """Register a live subscriber; returns an unsubscribe function."""
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    def records(self, kind: Optional[str] = None) -> Iterator[TraceRecord]:
        for rec in self._records:
            if kind is None or rec.kind == kind:
                yield rec

    def dump(self) -> str:
        return "\n".join(str(rec) for rec in self._records)

    def __len__(self) -> int:
        return len(self._records)
