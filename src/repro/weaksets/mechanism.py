"""What a constraint costs: the enforcement mechanism behind a design point.

"The more restrictive the specification, the harder it is to implement
efficiently in a distributed system."  A row of
:mod:`repro.spec.figures` says what an invocation must do; its
``constraint`` says what the *environment* must uphold meanwhile, and
upholding it is the one thing the design points do differently —
nothing, a ghost registration, a per-run read lock, a quorum read, a
global lock.  A mechanism states how ``s`` is read, what its
enforcement lets the fetch pipeline trust, and what a run holds from
``begin`` to ``end``.  The base case is here; each other mechanism
lives with the design point that needs it, beside the paper's words
for why.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from ..errors import FailureException
from ..store.elements import Element
from ..store.repository import Repository

__all__ = ["Mechanism"]


class Mechanism:
    """No enforcement: the constraint is trivial, or the store's policy
    upholds it.  ``s`` is read from the **primary** — one RPC is one
    atomic action in our model; a stale replica would not be the basis
    state's value — and buffered results are re-validated at the home
    (``"probe"``) before being trusted across a world change."""

    validation = "probe"
    failover = False
    use_cache = False
    #: ``end`` runs before the terminating invocation completes (inside
    #: the run's window) or after it
    ends_in_window = True
    #: the run's (element, value) pairs still to hand out, when ``begin``
    #: fetched them all before the first yield
    loaded: Optional[deque[tuple[Element, Any]]] = None

    def __init__(self, repo: Repository, coll_id: str):
        self.repo = repo
        self.coll_id = coll_id

    def read(self) -> Generator[Any, Any, frozenset[Element]]:
        """The authoritative current membership.  An unreachable primary
        is itself a failure (pessimism all the way down)."""
        view = yield from self.repo.read_membership(self.coll_id, source="primary")
        return view.members

    def confirm(self) -> Generator[Any, Any, frozenset[Element]]:
        """Members per the primary (none if it cannot be asked): what an
        optimistic run checks before it returns."""
        try:
            return (yield from Mechanism.read(self))
        except FailureException:
            return frozenset()

    def begin(self, iterator) -> Generator[Any, Any, None]:
        return
        yield

    def end(self) -> Generator[Any, Any, None]:
        return
        yield
