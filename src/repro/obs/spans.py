"""Span-based tracing over the simulation's virtual clock.

A :class:`Span` is a named, timed interval with a parent link:
``drain`` spans contain ``rpc.call`` spans contain ``rpc.attempt``
spans, so one trace answers "where did this drain's 3.2 seconds go?".

Nesting is the subtle part.  The simulator interleaves many generator
processes on one thread, so a naive global "current span" stack would
parent process B's spans under whatever process A happened to leave
open across a yield.  The :class:`Tracer` instead keeps **one stack per
context**, where the context key is supplied by the kernel as "the
currently running process" — span parentage follows the ``yield from``
chain of a single process, exactly matching the caller/callee structure
of the code.  Forked children (hedged RPC attempts) inherit the
forker's active span as their base parent via :meth:`Tracer.adopt`, so
a hedge attempt still traces back to the drain that caused it; the
kernel releases the borrowed base when the child finishes
(:meth:`repro.sim.Kernel.adopt`).

Timing comes from the virtual clock: a seeded run yields byte-identical
span timings, which makes traces diffable CI artifacts rather than
one-off debugging aids.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.clock import Clock

__all__ = ["Span", "Tracer"]


class Span:
    """One timed, attributed interval; immutable identity, mutable end."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "attrs", "_ctx")

    def __init__(self, span_id: int, name: str, start: float,
                 parent_id: Optional[int] = None,
                 attrs: Optional[dict[str, Any]] = None,
                 ctx: Hashable = None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs: dict[str, Any] = attrs or {}
        self._ctx = ctx          # which context stack this span sits on

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id, "parent_id": self.parent_id,
            "name": self.name, "start": self.start, "end": self.end,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:
        dur = f"{self.duration:.6f}s" if self.finished else "open"
        return f"Span(#{self.span_id} {self.name} {dur})"


class Tracer:
    """Records spans with per-context parent stacks.

    ``context_key`` returns a hashable identifier for "who is running
    right now" (the kernel passes its current process; ``None`` covers
    plain callbacks).  ``max_spans`` bounds retention so soak runs don't
    hoard memory: past the cap, spans are still timed and returned to
    callers but no longer kept for export (``dropped`` counts them).
    """

    def __init__(self, clock: "Clock",
                 context_key: Optional[Callable[[], Hashable]] = None,
                 max_spans: int = 100_000):
        self._clock = clock
        self._context_key = context_key or (lambda: None)
        self._ids = itertools.count(1)
        self._spans: list[Span] = []
        self._stacks: dict[Hashable, list[Span]] = {}
        self.max_spans = max_spans
        self.dropped = 0

    # ------------------------------------------------------------------
    def start(self, name: str, parent: Optional[Span] = None,
              **attrs: Any) -> Span:
        """Open a span.  Parent defaults to the current context's active
        span; pass ``parent=`` to link across contexts (hedged forks)."""
        ctx = self._context_key()
        stack = self._stacks.get(ctx)
        if parent is None and stack:
            parent = stack[-1]
        span = Span(next(self._ids), name, self._clock.now,
                    parent_id=parent.span_id if parent is not None else None,
                    attrs=attrs, ctx=ctx)
        if stack is None:
            stack = self._stacks[ctx] = []
        stack.append(span)
        if len(self._spans) < self.max_spans:
            self._spans.append(span)
        else:
            self.dropped += 1
        return span

    def finish(self, span: Span, **attrs: Any) -> Span:
        """Close a span at the current virtual time (idempotent)."""
        if attrs:
            span.attrs.update(attrs)
        if span.end is None:
            span.end = self._clock.now
        stack = self._stacks.get(span._ctx)
        if stack is not None:
            if stack[-1] is span:
                stack.pop()
            else:
                # Out-of-order finish (a killed process's children,
                # say): remove by identity.
                for i in range(len(stack) - 2, -1, -1):
                    if stack[i] is span:
                        del stack[i]
                        break
            if not stack:
                del self._stacks[span._ctx]
        return span

    def active(self) -> Optional[Span]:
        """The current context's innermost open span, if any."""
        stack = self._stacks.get(self._context_key())
        return stack[-1] if stack else None

    def adopt(self, child_ctx: Hashable, parent_ctx: Hashable) -> bool:
        """Seed ``child_ctx``'s stack with ``parent_ctx``'s active span,
        so spans in a forked process nest under the forker's work.  The
        borrowed base belongs to (and is finished by) the parent
        context; the child only parents under it, so its stack never
        drains: whoever adopts a context that ends must :meth:`release`
        it (``True``: a base was borrowed)."""
        parent_stack = self._stacks.get(parent_ctx)
        if parent_stack and child_ctx not in self._stacks:
            self._stacks[child_ctx] = [parent_stack[-1]]
            return True
        return False

    def release(self, ctx: Hashable) -> None:
        """Forget ``ctx``: it has ended and starts no more spans.  An
        adopted context's stack still holds the borrowed base, and the
        stack is what keeps its key — a finished process, and the result
        its ``done`` holds — among the tracer's."""
        self._stacks.pop(ctx, None)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def spans(self, name: Optional[str] = None) -> list[Span]:
        if name is None:
            return list(self._spans)
        return [s for s in self._spans if s.name == name]

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def by_id(self, span_id: int) -> Optional[Span]:
        for span in self._spans:
            if span.span_id == span_id:
                return span
        return None

    def ancestors(self, span: Span) -> Iterator[Span]:
        """Walk parent links root-ward (skips dropped ancestors)."""
        seen = {span.span_id}
        current = span
        while current.parent_id is not None:
            parent = self.by_id(current.parent_id)
            if parent is None or parent.span_id in seen:
                return
            seen.add(parent.span_id)
            yield parent
            current = parent

    def children(self, span: Span) -> list[Span]:
        return [s for s in self._spans if s.parent_id == span.span_id]

    def roots(self) -> list[Span]:
        return [s for s in self._spans if s.parent_id is None]

    def __repr__(self) -> str:
        open_spans = sum(1 for s in self._spans if not s.finished)
        return f"Tracer({len(self._spans)} spans, {open_spans} open)"
