"""Union queries across repositories.

"unlike for transaction-oriented databases … there is no global
consistency requirement that must be upheld across a set of information
repositories in the WWW."

A :class:`UnionIterator` interleaves the element streams of several
weak-set iterators — typically the same logical query against several
independent repositories (two library consortia, several web indexes) —
deduplicating by element name, since "there are no duplicates (though
we probably would not be overly annoyed if there were)".

The union is exactly as weak as its weakest source.  Failure policy is
a knob:

* ``on_failure="skip"`` (default, the weak-set spirit): a failing
  source is dropped and the union continues with the others;
* ``on_failure="fail"``: any source failure fails the union
  (pessimistic composition).
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

from ..spec.termination import Failed, Outcome, Returned, Yielded
from .iterator import DrainResult, ElementsIterator, drain_loop

__all__ = ["UnionIterator", "union"]


class UnionIterator:
    """Round-robin interleaving of several element streams."""

    def __init__(self, sources: Sequence[ElementsIterator], *,
                 on_failure: str = "skip", dedupe: bool = True):
        if on_failure not in ("skip", "fail"):
            raise ValueError(f"on_failure must be 'skip' or 'fail', got {on_failure!r}")
        self.sources = list(sources)
        self.on_failure = on_failure
        self.dedupe = dedupe
        self._active = list(self.sources)
        self._cursor = 0
        self.yielded_names: set[str] = set()
        self.duplicates_suppressed = 0
        self.failed_sources: list[tuple[ElementsIterator, Failed]] = []
        self.terminated = False

    @property
    def world(self):
        return self.sources[0].repo.world if self.sources else None

    def invoke(self) -> Generator[Any, Any, Outcome]:
        """One union invocation: the next novel element from any source."""
        while self._active:
            source = self._active[self._cursor % len(self._active)]
            outcome = yield from source.invoke()
            if isinstance(outcome, Yielded):
                self._cursor += 1
                name = outcome.element.name
                if self.dedupe and name in self.yielded_names:
                    self.duplicates_suppressed += 1
                    continue
                self.yielded_names.add(name)
                return outcome
            # source terminated (returns or fails): retire it
            self._active.remove(source)
            if isinstance(outcome, Failed):
                self.failed_sources.append((source, outcome))
                if self.on_failure == "fail":
                    self.terminated = True
                    for other in self._active:
                        other.abandon()     # stop its pipeline and recorder
                    return Failed(f"source {source.impl_name} over "
                                  f"{source.coll_id} failed: {outcome.reason}")
        self.terminated = True
        return Returned()

    def drain(self, max_yields: Optional[int] = None) -> Generator[Any, Any, DrainResult]:
        world = self.world
        return (yield from drain_loop(
            self.invoke, lambda: world.now if world else 0.0, max_yields))


def union(*weaksets, on_failure: str = "skip", dedupe: bool = True) -> UnionIterator:
    """Fresh union iteration over several weak sets.

    Example — the same author query against two library consortia::

        result = yield from union(catalog_a, catalog_b).drain()
    """
    return UnionIterator([ws.elements() for ws in weaksets],
                         on_failure=on_failure, dedupe=dedupe)
