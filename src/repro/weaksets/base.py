"""The :class:`WeakSet` facade: one client's handle on one collection.

A ``WeakSet`` binds together a client node, a collection, and a choice
of iterator semantics (one of the paper's design points).  It exposes
the type interface of the paper's Figure 1 —

    set = type create, add, remove, size, elements

— where ``create`` is the constructor, ``add``/``remove``/``size`` are
procedures (simulated sub-generators, since they involve RPC), and
``elements`` produces a fresh :class:`~repro.weaksets.iterator.ElementsIterator`.

Every iteration is recorded by default, and each class names the figure
it is judged against (``semantics``), so conformance checking is a
one-liner afterwards::

    ws = DynamicSet(world, client="laptop", coll_id="menus")
    result = yield from ws.elements().drain()
    report = ws.audit()          # vs spec_by_id("fig6")
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..net.address import NodeId
from ..net.resilience import ResilientClient
from ..spec.checker import ConformanceReport, check_conformance
from ..spec.figures import spec_by_id
from ..spec.iterspec import IteratorSpec
from ..spec.trace import IterationTrace, TraceRecorder
from ..store.cache import ClientCache
from ..store.elements import Element
from ..store.repository import Repository
from ..store.world import World
from .iterator import ElementsIterator
from .mechanism import Mechanism

__all__ = ["WeakSet"]


class WeakSet:
    """Base class for the design points: a row and a mechanism."""

    #: what a design point states about itself, once: the ``spec_by_id``
    #: id of its row — what ``elements()`` does *and* what ``audit()``
    #: judges it against — the collection policy its environment
    #: upholds, the name its traces, drain metrics and experiment rows
    #: carry, and what enforcing its constraint costs
    semantics = "?"
    expected_policy = "any"
    impl_name = "elements"
    mechanism: type[Mechanism] = Mechanism

    def __init__(self, world: World, client: NodeId, coll_id: str, *,
                 cache: Optional[ClientCache] = None,
                 rpc_timeout: Optional[float] = None,
                 resilience: Optional[ResilientClient] = None,
                 record: bool = True,
                 **iterator_kwargs: Any):
        self.world = world
        self.client = client
        self.coll_id = coll_id
        self.repo = Repository(world, client, cache=cache,
                               rpc_timeout=rpc_timeout, resilience=resilience)
        self.record = record
        self.iterator_kwargs = iterator_kwargs
        self.traces: list[IterationTrace] = []

    @property
    def spec(self) -> IteratorSpec:
        """This design point's row: the one place it is resolved."""
        return spec_by_id(self.semantics)

    # -- Figure 1's type interface ------------------------------------------
    def elements(self) -> ElementsIterator:
        """Start a fresh iteration (the membership-defining operation)."""
        recorder: Optional[TraceRecorder] = None
        if self.record:
            recorder = TraceRecorder(
                self.world, self.coll_id, self.client,
                impl_name=self.impl_name,
            )
            self.traces.append(recorder.trace)
        iterator = ElementsIterator(
            self.repo, self.coll_id, self.spec, self.mechanism,
            recorder=recorder, **self.iterator_kwargs)
        iterator.impl_name = self.impl_name
        return iterator

    def add(self, name: str, value: Any = None, home: Optional[NodeId] = None,
            size: int = 0) -> Generator[Any, Any, Element]:
        """``add``: register a new member (object created at its home)."""
        return (yield from self.repo.add(self.coll_id, name, value, home, size))

    def add_many(self, specs, *, window: int = 4, batch_size: int = 8
                 ) -> Generator[Any, Any, list[Element]]:
        """Bulk ``add`` through the batched write pipeline.

        ``specs`` are :class:`~repro.store.writeplan.AddSpec` entries
        (bare strings mean "name only").  Same semantics as a sequence
        of ``add`` calls — every element's copies exist before it
        becomes visible — at a fraction of the round trips.
        """
        return (yield from self.repo.add_many(
            self.coll_id, specs, window=window, batch_size=batch_size))

    def remove(self, element: Element) -> Generator[Any, Any, None]:
        """``remove``: delete a member (policy permitting)."""
        yield from self.repo.remove(self.coll_id, element)

    def size(self) -> Generator[Any, Any, int]:
        """``size``: |s_pre| as known by the primary."""
        view = yield from self.repo.read_membership(self.coll_id, source="primary")
        return len(view.members)

    # -- conveniences -------------------------------------------------------
    @property
    def last_trace(self) -> Optional[IterationTrace]:
        return self.traces[-1] if self.traces else None

    def audit(self) -> ConformanceReport:
        """The last recorded iteration, checked against this class's
        row: the one audit entry point."""
        return check_conformance(self.last_trace, self.spec, self.world)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.coll_id!r} from {self.client!r}, "
                f"semantics={self.semantics})")
