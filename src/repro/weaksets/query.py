"""Predicate queries over weak sets.

"by supporting a set-like abstraction, we can support database-like
queries, e.g., finding all files that satisfy a given predicate."

A :class:`QueryIterator` drives an underlying ``elements`` iterator and
yields only the members whose (element, value) satisfy a predicate —
itself obeying the iterator protocol, so a filtered query inherits the
semantics (and the conformance story) of the design point it wraps.
Note one asymmetry the paper's model implies: filtering happens on the
*yield stream*, so a query over a Figure 6 iterator is exactly as weak
as the iterator itself.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..spec.termination import Outcome, Yielded
from ..store.elements import Element
from .base import WeakSet
from .iterator import DrainResult, drain_loop

__all__ = ["QueryIterator", "select"]

Predicate = Callable[[Element, Any], bool]


class QueryIterator:
    """Filters an iterator's yield stream.

    Mirrors the iterator protocol: each :meth:`invoke` produces one
    outcome, driving the underlying iterator as many invocations as it
    takes to find the next match (or to terminate).  The inner iterator
    may be an :class:`ElementsIterator` or anything protocol-compatible
    (e.g. a :class:`~repro.weaksets.union.UnionIterator`).
    """

    def __init__(self, inner: Any, predicate: Predicate):
        self.inner = inner
        self.predicate = predicate
        self.examined = 0
        self.matched = 0

    @property
    def terminated(self) -> bool:
        return self.inner.terminated

    def _now(self) -> float:
        repo = getattr(self.inner, "repo", None)
        if repo is not None:
            return repo.world.now
        world = getattr(self.inner, "world", None)
        return world.now if world is not None else 0.0

    def invoke(self) -> Generator[Any, Any, Outcome]:
        while True:
            outcome = yield from self.inner.invoke()
            if not isinstance(outcome, Yielded):
                return outcome
            self.examined += 1
            if self.predicate(outcome.element, outcome.value):
                self.matched += 1
                return outcome

    def drain(self, max_yields: Optional[int] = None) -> Generator[Any, Any, DrainResult]:
        return (yield from drain_loop(self.invoke, self._now, max_yields))


def select(weakset: WeakSet, predicate: Predicate) -> QueryIterator:
    """Fresh filtered iteration over ``weakset``.

    Example — the paper's restaurant query::

        chinese = select(menus, lambda e, v: v and v.cuisine == "chinese")
        result = yield from chinese.drain()
    """
    return QueryIterator(weakset.elements(), predicate)
