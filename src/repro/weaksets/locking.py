"""Distributed read/write locks.

"The more restrictive the specification, the harder it is to implement
efficiently in a distributed system.  For instance, preventing mutation
requires distributed locking …"

A :class:`LockService` lives on each of a collection's lock nodes (its
primary, or every shard) and hands out read/write locks over RPC.  It is intentionally
classical: multiple readers or one writer, wake-all on release, FIFO
fairness *not* guaranteed, and — by default — **no leases**: a client
that disconnects while holding a read lock blocks writers until it
comes back (§3.1's indefinite lock extension, measured in E6).  Passing
``lease`` enables expiry, the standard mitigation, as an ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..errors import FailureException, LockUnavailableFailure, SimulationError
from ..sim.events import Signal, Sleep, Wait
from ..store.repository import Repository
from ..store.world import World

__all__ = [
    "LockService",
    "LockClient",
    "install_lock_services",
    "acquire_collection_locks",
    "release_collection_locks",
]


@dataclass
class _LockState:
    readers: set[str] = field(default_factory=set)
    writer: Optional[str] = None
    waiters: list[Signal] = field(default_factory=list)
    expiries: dict[str, float] = field(default_factory=dict)
    waiting_writers: int = 0

    def grantable(self, mode: str, writer_priority: bool = False) -> bool:
        if mode == "read":
            if writer_priority and self.waiting_writers > 0:
                # a writer is parked: new readers queue behind it so a
                # steady reader stream cannot starve writers forever
                return False
            return self.writer is None
        if mode == "write":
            return self.writer is None and not self.readers
        raise SimulationError(f"unknown lock mode {mode!r}")

    def holders(self) -> set[str]:
        held = set(self.readers)
        if self.writer is not None:
            held.add(self.writer)
        return held


class LockService:
    """Collection-level read/write locks, hosted on one node."""

    SERVICE = "locks"

    def __init__(self, world: World, lease: Optional[float] = None,
                 writer_priority: bool = False):
        """
        Args:
            world: for virtual time and scheduling.
            lease: lock auto-expiry (None = locks never expire; §3.1's
                disconnection hazard in full).
            writer_priority: park new readers behind waiting writers,
                preventing a steady reader stream from starving writers
                (at the price of reduced read concurrency).
        """
        self.world = world
        self.lease = lease
        self.writer_priority = writer_priority
        self._locks: dict[str, _LockState] = {}
        self.max_wait_observed = 0.0
        self.grants = 0

    # -- RPC methods ----------------------------------------------------
    def acquire(self, coll_id: str, mode: str, owner: str,
                wait_timeout: Optional[float] = None) -> Generator[Any, Any, float]:
        """Block (in simulated time) until the lock is granted.

        Returns the time spent waiting.  Raises ``TimeoutFailure`` (via
        the Wait) if ``wait_timeout`` elapses first.
        """
        state = self._locks.setdefault(coll_id, _LockState())
        started = self.world.now
        self._expire_stale(state)
        is_waiting_writer = False
        try:
            while not state.grantable(mode, self.writer_priority):
                if mode == "write" and not is_waiting_writer:
                    is_waiting_writer = True
                    state.waiting_writers += 1
                signal = Signal(name=f"lock:{coll_id}")
                state.waiters.append(signal)
                remaining = None
                if wait_timeout is not None:
                    elapsed = self.world.now - started
                    remaining = max(0.0, wait_timeout - elapsed)
                    if remaining == 0.0:
                        raise LockUnavailableFailure(
                            f"{mode} lock on {coll_id} not granted within {wait_timeout}s"
                        )
                yield Wait(signal, timeout=remaining)
                self._expire_stale(state)
        finally:
            if is_waiting_writer:
                state.waiting_writers -= 1
        if mode == "read":
            state.readers.add(owner)
        else:
            state.writer = owner
        if self.lease is not None:
            state.expiries[owner] = self.world.now + self.lease
            # Without this wake-up, a lease expiring while everyone is
            # parked would go unnoticed until the next release.
            self.world.kernel.call_soon(
                lambda: self._on_lease_expiry(coll_id), delay=self.lease + 1e-6
            )
        self.grants += 1
        waited = self.world.now - started
        self.max_wait_observed = max(self.max_wait_observed, waited)
        return waited

    def release(self, coll_id: str, mode: str, owner: str) -> Generator[Any, Any, bool]:
        yield Sleep(0.0)
        state = self._locks.get(coll_id)
        if state is None:
            return False
        released = self._drop(state, mode, owner)
        self._wake(state)
        return released

    def holders(self, coll_id: str) -> list[str]:
        state = self._locks.get(coll_id)
        return sorted(state.holders()) if state else []

    # -- internals ----------------------------------------------------------
    def _drop(self, state: _LockState, mode: str, owner: str) -> bool:
        state.expiries.pop(owner, None)
        if mode == "read":
            if owner in state.readers:
                state.readers.discard(owner)
                return True
            return False
        if state.writer == owner:
            state.writer = None
            return True
        return False

    def _wake(self, state: _LockState) -> None:
        waiters, state.waiters = state.waiters, []
        for signal in waiters:
            if not signal.fired:
                signal.fire(None)

    def _on_lease_expiry(self, coll_id: str) -> None:
        state = self._locks.get(coll_id)
        if state is not None:
            self._expire_stale(state)
            self._wake(state)

    def _expire_stale(self, state: _LockState) -> None:
        if self.lease is None:
            return
        now = self.world.now
        for owner, deadline in list(state.expiries.items()):
            if now > deadline:
                state.expiries.pop(owner, None)
                state.readers.discard(owner)
                if state.writer == owner:
                    state.writer = None


def install_lock_services(world: World, coll_id: str,
                          lease: Optional[float] = None,
                          writer_priority: bool = False) -> dict[str, LockService]:
    """Install one :class:`LockService` per lock node of ``coll_id``.

    For an unsharded collection this is just the primary; for a sharded
    one, every shard hosts the lock over its own key range.  Nodes that
    already expose a lock service are left untouched.
    """
    services: dict[str, LockService] = {}
    for node in world.collections[coll_id].lock_nodes():
        existing = world.net.node(node).services.get(LockService.SERVICE)
        if existing is None:
            existing = LockService(world, lease=lease,
                                   writer_priority=writer_priority)
            world.net.register_service(node, LockService.SERVICE, existing)
        services[node] = existing
    return services


class LockClient:
    """Client-side handle for one lock on one collection."""

    def __init__(self, repo: Repository, coll_id: str, node: str):
        """``node`` is the lock service's host, one of the collection's
        :meth:`~repro.store.world.CollectionInfo.lock_nodes` (see
        :func:`acquire_collection_locks`)."""
        self.repo = repo
        self.coll_id = coll_id
        self.node = node
        self.owner = repo.world.fresh_lock_owner(repo.client)
        self.mode: Optional[str] = None

    def acquire(self, mode: str, wait_timeout: Optional[float] = None,
                rpc_timeout: Optional[float] = None) -> Generator[Any, Any, float]:
        """Acquire; returns simulated seconds spent waiting for the grant."""
        waited = yield from self.repo.net.call(
            self.repo.client, self.node, LockService.SERVICE, "acquire",
            self.coll_id, mode, self.owner, wait_timeout,
            timeout=rpc_timeout if rpc_timeout is not None else float("inf"),
        )
        self.mode = mode
        return waited

    def release(self) -> Generator[Any, Any, None]:
        if self.mode is None:
            return
        mode, self.mode = self.mode, None
        yield from self.repo.net.call(
            self.repo.client, self.node, LockService.SERVICE, "release",
            self.coll_id, mode, self.owner,
        )


def acquire_collection_locks(
    repo: Repository, coll_id: str, mode: str,
    wait_timeout: Optional[float] = None,
    rpc_timeout: Optional[float] = None,
) -> Generator[Any, Any, list[LockClient]]:
    """Acquire ``mode`` locks covering the whole collection.

    Unsharded collections need one lock (on the primary); sharded ones
    need one per shard, each guarding its own key range.  Locks are
    taken in *ring order* — every client walks the shards in the same
    deterministic sequence, so two pessimistic writers cannot deadlock
    by grabbing shards in opposite orders.  On any failure the locks
    already held are rolled back (in reverse) before the exception
    propagates.
    """
    held: list[LockClient] = []
    try:
        for node in repo.placement(coll_id).lock_nodes():
            lock = LockClient(repo, coll_id, node)
            yield from lock.acquire(mode, wait_timeout=wait_timeout,
                                    rpc_timeout=rpc_timeout)
            held.append(lock)
    except BaseException:
        yield from release_collection_locks(held)
        raise
    return held


def release_collection_locks(locks) -> Generator[Any, Any, None]:
    """Release a set of locks in reverse acquisition order.

    A lock whose node cannot be reached stays held there (with no lease,
    until its holder returns — §3.1's hazard); the rest are still
    released.
    """
    for lock in reversed(list(locks)):
        try:
            yield from lock.release()
        except FailureException:
            pass
