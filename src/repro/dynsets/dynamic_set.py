"""The dynamic-sets Unix API: ``setOpen`` / ``setIterate`` / ``setClose``.

This is the programmer-facing shape of Steere's thesis system ("one of
us (DCS) as part of a Ph.D. thesis is adding a set abstraction called
dynamic sets to the Unix Application Programmer's Interface"): open a
set (here, a directory of the distributed file system, or any
collection), iterate members as they arrive from the parallel
prefetcher, close when done — possibly early, which is the whole point
of streaming ("We can return information to the user more quickly by
yielding partial information").

This is where dynamic sets earn their keep: "(2) we can implement such
file system commands more efficiently by fetching files in parallel,
fetching 'closer' files first, and fetching all accessible files
despite network failures."

Semantically this layer *is* the paper's weakest design point: the
handle holds a :class:`~repro.weaksets.DynamicSet` and each
``setIterate`` is one invocation of its ``elements`` iterator, so
Figure 6's optimistic blocking is written once (``ElementsIterator``),
every open set is recorded, and :meth:`DynSetHandle.audit` judges it
like any other drain.  What this layer adds is traversal only: members
are delivered in arrival order — the first yield happens after roughly
*one* fetch, not after all of them.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..errors import SimulationError, UnreachableObjectFailure
from ..net.address import NodeId
from ..spec.checker import ConformanceReport
from ..spec.termination import Failed, Outcome, Yielded
from ..store.fetchplan import FetchResult
from ..store.world import World
from ..weaksets.dynamic import DynamicSet
from ..weaksets.iterator import ElementsIterator
from .filesystem import FileSystem

__all__ = ["DynSetHandle", "set_open", "set_open_dir"]


class DynSetHandle:
    """An open dynamic set.  Create via :func:`set_open`.

    ``parallelism`` and ``batch_size`` are the iterator's fetch window
    and batch (``batch_size=1`` = one RPC per element);
    ``closest_first=False`` is E3's ordering ablation; every other
    keyword (``retry_interval``, ``give_up_after``, ``use_cache``,
    ``failover``, …) is :class:`~repro.weaksets.DynamicSet`'s own.
    """

    def __init__(self, world: World, client: NodeId, coll_id: str, *,
                 parallelism: int = 4, batch_size: int = 1,
                 closest_first: bool = True, **set_kwargs: Any):
        self.coll_id = coll_id
        self.closest_first = closest_first
        self.set = DynamicSet(world, client, coll_id, fetch_window=parallelism,
                              fetch_batch=batch_size, **set_kwargs)
        self.iterator: Optional[ElementsIterator] = None
        #: how the run ended (``Returned`` / ``Failed``), once it has
        self.outcome: Optional[Outcome] = None
        self.opened_at: Optional[float] = None
        self.first_result_at: Optional[float] = None
        self.closed = False
        self.results: list[FetchResult] = []

    # ------------------------------------------------------------------
    def open(self) -> Generator[Any, Any, "DynSetHandle"]:
        """Start an iteration (setOpen); the first :meth:`iterate`
        reads the membership and starts prefetching."""
        if self.iterator is not None:
            raise SimulationError("dynamic set opened twice")
        self.opened_at = self.set.world.now
        self.iterator = self.set.elements()
        self.iterator.fetch_dials.update(closest_first=self.closest_first,
                                         in_order=False)
        return self
        yield

    def iterate(self) -> Generator[Any, Any, Optional[FetchResult]]:
        """Next member as soon as one is available (setIterate).

        Returns None once the iteration has terminated: it returned
        (nothing of the set is left), or — only with ``give_up_after`` —
        failed, and then the members it was blocked on join ``results``
        as ``unreachable``.  A run that failed with nothing to show —
        the set itself never answered — raises the failure instead.
        The caller sees only successfully materialized members; removed
        ones are skipped.
        """
        if self.iterator is None:
            raise SimulationError("setIterate before setOpen")
        if self.closed:
            raise SimulationError("setIterate after setClose")
        if self.outcome is not None:
            return None
        outcome = yield from self.iterator.invoke()
        if isinstance(outcome, Yielded):
            result = FetchResult(outcome.element, value=outcome.value,
                                 fetched_at=self.set.world.now)
            if self.first_result_at is None:
                self.first_result_at = result.fetched_at
            self.results.append(result)
            return result
        self.outcome = outcome
        if isinstance(outcome, Failed):
            if not self.results and not self.iterator.blocked_on:
                raise UnreachableObjectFailure(outcome.reason)
            self.results.extend(
                FetchResult(element, status="unreachable",
                            fetched_at=self.set.world.now,
                            detail=outcome.reason)
                for element in self.iterator.blocked_on)
        return None

    def iterate_all(self, limit: Optional[int] = None) -> Generator[Any, Any, list[FetchResult]]:
        """Drain the set (optionally the first ``limit`` members)."""
        out: list[FetchResult] = []
        while limit is None or len(out) < limit:
            result = yield from self.iterate()
            if result is None:
                break
            out.append(result)
        return out

    def close(self) -> None:
        """Stop prefetching and release resources (setClose).

        Closing early is cheap and expected — e.g. the user found the
        restaurant they wanted after three menus.
        """
        if self.iterator is not None:
            self.iterator.abandon()
        self.closed = True

    def audit(self) -> ConformanceReport:
        """The open set's recorded run, judged against Figure 6."""
        return self.set.audit()

    # -- statistics ------------------------------------------------------
    @property
    def time_to_first(self) -> Optional[float]:
        if self.first_result_at is None or self.opened_at is None:
            return None
        return self.first_result_at - self.opened_at

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("open" if self.iterator else "new")
        return f"DynSetHandle({self.coll_id}, {state}, {len(self.results)} results)"


def set_open(world: World, client: NodeId, coll_id: str,
             **kwargs: Any) -> Generator[Any, Any, DynSetHandle]:
    """setOpen over an arbitrary collection."""
    handle = DynSetHandle(world, client, coll_id, **kwargs)
    return (yield from handle.open())


def set_open_dir(fs: FileSystem, client: NodeId, path: str,
                 **kwargs: Any) -> Generator[Any, Any, DynSetHandle]:
    """setOpen over a file-system directory."""
    return (yield from set_open(fs.world, client,
                                fs.directory_collection(path), **kwargs))
