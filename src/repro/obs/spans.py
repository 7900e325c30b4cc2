"""Span-based tracing over the simulation's virtual clock.

A :class:`Span` is a named, timed interval with a parent link:
``drain`` spans contain ``rpc.call`` spans contain ``rpc.attempt``
spans, so one trace answers "where did this drain's 3.2 seconds go?".

Every layer opens and closes its spans on the kernel's one
:class:`Tracer`, but a run keeps spans only while a
:class:`SpanRecorder` is attached (``tracer.record()``).  Unrecorded —
every run whose spans nobody reads — ``start`` returns the virtual
start time as an opaque token and ``finish`` returns the duration, which
the call sites observe into their latency histograms: no span is built,
no context asked, nothing kept.  Call sites pass their attributes raw
(node ids, ``service`` beside ``method``); the recorder turns them into
the text a recorded span carries.

Nesting is the subtle part.  The simulator interleaves many generator
processes on one thread, so a naive global "current span" stack would
parent process B's spans under whatever process A happened to leave
open across a yield.  The recorder instead keeps **one stack per
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

from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.clock import Clock

__all__ = ["Span", "SpanRecorder", "Tracer"]

#: a finished span's context: it sits on no stack any more, and keeps
#: no process (nor the result it returned) alive for the recorder
_FINISHED = object()


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


def _as_text(attrs: dict[str, Any]) -> dict[str, Any]:
    """A call site's raw attributes as a recorded span carries them:
    ``service`` joins ``method`` as ``"service.method"``; a string,
    number, bool or ``None`` stays; a list or tuple (of node ids) is its
    items' text joined by commas; anything else (a node id) is its
    ``str``."""
    service = attrs.pop("service", None)
    if service is not None:
        attrs["method"] = f"{service}.{attrs['method']}"
    for key, value in attrs.items():
        if value is None or isinstance(value, (str, int, float)):
            continue
        attrs[key] = (",".join(map(str, value))
                      if isinstance(value, (list, tuple)) else str(value))
    return attrs


class Tracer:
    """Times spans on the virtual clock; records them only through an
    attached :class:`SpanRecorder`.

    ``start(name, **attrs)`` returns a token and ``finish(token,
    **attrs)`` the span's duration.  With no recorder the token is the
    start time and nothing else happens; with one, it is the recorded
    :class:`Span`.  ``context_key`` returns a hashable identifier for
    "who is running right now" (the kernel passes its current process;
    ``None`` covers plain callbacks) — only a recorder asks it.
    """

    __slots__ = ("_clock", "_context_key", "recorder")

    def __init__(self, clock: "Clock",
                 context_key: Optional[Callable[[], Hashable]] = None):
        self._clock = clock
        self._context_key = context_key or (lambda: None)
        self.recorder: Optional[SpanRecorder] = None

    def record(self) -> "SpanRecorder":
        """Attach the recorder (once; later calls return it): every span
        started from now on is kept, parented and queryable there.  Works
        on a built world — the layers hold this tracer, not a recorder."""
        if self.recorder is None:
            self.recorder = SpanRecorder(self._clock, self._context_key)
        return self.recorder

    def start(self, name: str, parent: Optional[Span] = None,
              **attrs: Any) -> Any:
        """Open a span; returns the token :meth:`finish` takes.  A
        recorded span's parent defaults to the current context's active
        span; pass ``parent=`` to link across contexts."""
        recorder = self.recorder
        if recorder is None:
            return self._clock.now
        return recorder.start(name, parent, attrs)

    def finish(self, token: Any, **attrs: Any) -> float:
        """Close the span ``token`` opened at the current virtual time;
        returns its duration."""
        recorder = self.recorder
        if recorder is None:
            return self._clock.now - token
        return recorder.finish(token, attrs)

    def adopt(self, child_ctx: Hashable, parent_ctx: Hashable) -> bool:
        """Let ``child_ctx``'s recorded spans nest under ``parent_ctx``'s
        active span (:meth:`SpanRecorder.adopt`); ``True`` when a base was
        borrowed, which :meth:`release` must give back.  Unrecorded,
        nothing is borrowed."""
        recorder = self.recorder
        return recorder is not None and recorder.adopt(child_ctx, parent_ctx)

    def release(self, ctx: Hashable) -> None:
        """``ctx`` has ended: the recorder forgets its stack."""
        self.recorder.release(ctx)

    def __repr__(self) -> str:
        recorder = self.recorder
        return f"Tracer({'unrecorded' if recorder is None else recorder})"


class SpanRecorder:
    """Every span started while attached to a :class:`Tracer`, in start
    order, with per-context parent stacks (see the module docstring)."""

    __slots__ = ("_clock", "_context_key", "_spans", "_stacks")

    def __init__(self, clock: "Clock", context_key: Callable[[], Hashable]):
        self._clock = clock
        self._context_key = context_key
        self._spans: list[Span] = []
        self._stacks: dict[Hashable, list[Span]] = {}

    # ------------------------------------------------------------------
    def start(self, name: str, parent: Optional[Span],
              attrs: dict[str, Any]) -> Span:
        ctx = self._context_key()
        stack = self._stacks.get(ctx)
        if parent is None and stack:
            parent = stack[-1]
        spans = self._spans
        span = Span(len(spans) + 1, name, self._clock.now,
                    parent_id=parent.span_id if parent is not None else None,
                    attrs=_as_text(attrs), ctx=ctx)
        if stack is None:
            self._stacks[ctx] = [span]
        else:
            stack.append(span)
        spans.append(span)
        return span

    def finish(self, span: Any, attrs: dict[str, Any]) -> float:
        """Close ``span`` (idempotent: the first end stands, attributes
        still merge); returns its duration."""
        now = self._clock.now
        if not isinstance(span, Span):
            return now - span        # opened before this recorder attached
        if attrs:
            span.attrs |= _as_text(attrs)
        if span.end is None:
            span.end = now
        ctx = span._ctx
        span._ctx = _FINISHED
        stack = self._stacks.get(ctx)    # None: finished twice, or released
        if stack is not None:
            if stack[-1] is span:
                del stack[-1]
            else:
                # Out-of-order finish (a killed process's children,
                # say): remove by identity.
                for i in range(len(stack) - 2, -1, -1):
                    if stack[i] is span:
                        del stack[i]
                        break
            if not stack:
                del self._stacks[ctx]
        return span.end - span.start

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
        its ``done`` holds — among the recorder's."""
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
        """Span ids are dense from 1 in start order."""
        if 1 <= span_id <= len(self._spans):
            return self._spans[span_id - 1]
        return None

    def ancestors(self, span: Span) -> Iterator[Span]:
        """Walk parent links root-ward."""
        current = span
        while current.parent_id is not None:
            current = self._spans[current.parent_id - 1]
            yield current

    def __repr__(self) -> str:
        open_spans = sum(1 for s in self._spans if not s.finished)
        return f"SpanRecorder({len(self._spans)} spans, {open_spans} open)"
