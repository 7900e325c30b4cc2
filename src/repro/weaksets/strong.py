"""The strong baseline: serializable iteration via distributed locking.

The paper's foil: "Although this functionality may be mandatory for
some high-integrity systems (e.g., a bank's distributed database), it
may [be] too constraining for low-integrity systems, especially
loosely-coupled ones (e.g., WWW)."

:class:`StrongSet` holds a collection-level read lock for the entire
run of ``elements`` (:class:`GlobalLock`) and requires every element
fetch to succeed; any unreachable element aborts the run.  Mutators
(its ``add``/``remove``) take the write lock.  The result is
serializable, first-vintage behaviour — and exactly the
latency/availability bill the benchmarks E2/E4/E6 present.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from ..errors import FailureException, NoSuchObjectError
from ..store.elements import Element
from .base import WeakSet
from .immutable import RunLock
from .locking import acquire_collection_locks, release_collection_locks

__all__ = ["StrongSet", "GlobalLock"]


class GlobalLock(RunLock):
    """Lock, snapshot, prefetch everything, then yield from memory.

    The read lock(s) are waited for at most ``lock_wait_timeout``; under
    them the membership is read and every value fetched through the
    run's pipeline before the first yield — E2's time-to-first bill —
    and any element that cannot be had aborts the run: all or nothing.
    Under the lock nothing can change, so pop-time validation is ``"none"``.
    """

    validation = "none"
    _members: frozenset[Element] = frozenset()

    def __init__(self, *args: Any, lock_wait_timeout: Optional[float] = None,
                 **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.wait_timeout = lock_wait_timeout

    def begin(self, iterator) -> Generator[Any, Any, None]:
        try:
            yield from super().begin(iterator)
        except FailureException as exc:
            raise FailureException(f"read lock unavailable: {exc}") from None
        loaded: deque[tuple[Element, Any]] = deque()
        try:
            self._members = yield from super().read()
            pipe = iterator._ensure_pipeline()
            pipe.submit(self._members)
            while (result := (yield from pipe.next_result())) is not None:
                if not result.ok:
                    reason = result.detail or f"{result.element} {result.status}"
                    raise FailureException(
                        f"{NoSuchObjectError.__name__}: {reason}"
                        if result.gone else reason)
                loaded.append((result.element, result.value))
        except FailureException as exc:
            raise FailureException(f"strong iteration aborted: {exc}") from None
        self.loaded = loaded

    def read(self) -> Generator[Any, Any, frozenset[Element]]:
        """``s_first`` is what was read under the lock."""
        return self._members
        yield


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
    mechanism = GlobalLock

    def __init__(self, *args: Any, **kwargs: Any):
        # The degenerate pipeline, unless the caller overrides: a
        # serializable database streams its scan one record at a time
        # under the lock, and that serial bill is exactly the baseline
        # cost story E2 measures.
        kwargs.setdefault("fetch_window", 1)
        kwargs.setdefault("fetch_batch", 1)
        super().__init__(*args, **kwargs)

    def _write_locked(self, mutation: Generator) -> Generator[Any, Any, Any]:
        locks = yield from acquire_collection_locks(self.repo, self.coll_id, "write")
        try:
            return (yield from mutation)
        finally:
            yield from release_collection_locks(locks)

    def add(self, name: str, value: Any = None, home: Optional[str] = None,
            size: int = 0) -> Generator[Any, Any, Element]:
        return (yield from self._write_locked(
            super().add(name, value, home, size)))

    def remove(self, element: Element) -> Generator[Any, Any, None]:
        yield from self._write_locked(super().remove(element))
