"""The strong baseline: serializable iteration via distributed locking.

The paper's foil: "Although this functionality may be mandatory for
some high-integrity systems (e.g., a bank's distributed database), it
may [be] too constraining for low-integrity systems, especially
loosely-coupled ones (e.g., WWW)."

:class:`StrongSet` holds a collection-level read lock for the entire
run of ``elements`` and requires every element fetch to succeed; any
unreachable element aborts the run.  Mutators (its ``add``/``remove``)
take the write lock.  The result is serializable, first-vintage
behaviour — and exactly the latency/availability bill the benchmarks
E2/E4/E6 present.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..errors import FailureException, NoSuchObjectError
from ..spec.termination import Failed, Outcome, Returned, Yielded
from ..store.elements import Element
from .base import WeakSet
from .iterator import ElementsIterator
from .locking import (
    LockClient,
    acquire_collection_locks,
    release_collection_locks,
)

__all__ = ["StrongIterator", "StrongSet"]


class StrongIterator(ElementsIterator):
    """Lock, snapshot, prefetch everything, then yield from memory.

    The prefetch runs through the shared :class:`FetchPipeline`, but in
    its *degenerate* configuration (``window=1, batch=1`` unless the
    caller overrides): a serializable database streams its scan one
    record at a time under the lock, and that serial bill is exactly
    the baseline cost story E2 measures.  Under the lock nothing can
    change, so pop-time validation is ``"none"``.
    """

    pipeline_validation = "none"

    def __init__(self, *args: Any, lock_wait_timeout: Optional[float] = None,
                 **kwargs: Any):
        kwargs.setdefault("fetch_window", 1)
        kwargs.setdefault("fetch_batch", 1)
        super().__init__(*args, **kwargs)
        self.lock_wait_timeout = lock_wait_timeout
        self._locks: list[LockClient] = []
        self._loaded: Optional[list[tuple[Element, Any]]] = None
        self._cursor = 0

    def _step(self) -> Generator[Any, Any, Outcome]:
        if self._loaded is None:
            outcome = yield from self._load_all()
            if outcome is not None:
                return outcome
        assert self._loaded is not None
        if self._cursor < len(self._loaded):
            element, value = self._loaded[self._cursor]
            self._cursor += 1
            return Yielded(element, value)
        if self._locks:
            locks, self._locks = self._locks, []
            yield from release_collection_locks(locks, quiet=True)
        return Returned()

    def _load_all(self) -> Generator[Any, Any, Optional[Outcome]]:
        """Acquire the read lock(s) and fetch every member, or abort.

        A sharded collection has one lock per shard; they are taken in
        ring order so concurrent strong writers cannot deadlock us.
        """
        try:
            self._locks = yield from acquire_collection_locks(
                self.repo, self.coll_id, "read",
                wait_timeout=self.lock_wait_timeout,
            )
        except FailureException as exc:
            self._locks = []
            return Failed(f"read lock unavailable: {exc}")
        failure: Optional[str] = None
        loaded: list[tuple[Element, Any]] = []
        try:
            view = yield from self.repo.read_membership(self.coll_id, source="primary")
            pipe = self._ensure_pipeline()
            pipe.submit(view.members)
            while True:
                result = yield from pipe.next_result()
                if result is None:
                    break
                if result.ok:
                    loaded.append((result.element, result.value))
                    continue
                # Strong semantics: all or nothing.
                reason = result.detail or f"{result.element} {result.status}"
                failure = (f"{NoSuchObjectError.__name__}: {reason}"
                           if result.gone else reason)
                break
        except FailureException as exc:
            failure = str(exc)
        if failure is not None:
            locks, self._locks = self._locks, []
            yield from release_collection_locks(locks, quiet=True)
            return Failed(f"strong iteration aborted: {failure}")
        self._loaded = loaded
        return None


class StrongSet(WeakSet):
    """Serializable set: the traditional-database comparison point.

    Requires a lock service on the collection's primary node
    (:func:`~repro.weaksets.locking.install_lock_service`), or one per
    shard (:func:`~repro.weaksets.locking.install_lock_services`) when
    the collection is sharded.  Its ``add``/``remove`` take the write
    lock(s) in ring order, so they serialize against every reader that
    plays by the same rules.
    """

    semantics = "fig4"  # a first-state snapshot, taken and drained under the lock
    impl_name = "strong"
    iterator_cls = StrongIterator

    def add(self, name: str, value: Any = None, home: Optional[str] = None,
            size: int = 0) -> Generator[Any, Any, Element]:
        locks = yield from acquire_collection_locks(self.repo, self.coll_id, "write")
        try:
            element = yield from super().add(name, value, home, size)
        finally:
            yield from release_collection_locks(locks, quiet=True)
        return element

    def remove(self, element: Element) -> Generator[Any, Any, None]:
        locks = yield from acquire_collection_locks(self.repo, self.coll_id, "write")
        try:
            yield from super().remove(element)
        finally:
            yield from release_collection_locks(locks, quiet=True)