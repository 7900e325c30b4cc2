"""Simulated hosts.

A :class:`Node` hosts named *services* — plain Python objects whose
public methods are callable over RPC.  A service method may:

* return a value directly (fast, in-memory handling), or
* be a generator (``yield Sleep(...)`` etc.), in which case it runs as a
  simulated process and the reply is sent when it finishes.

Crashing a node kills its in-flight handlers (no reply is ever sent,
exactly like a real crash) and, unless the node is configured as
durable, clears volatile service state via each service's optional
``on_crash()`` hook.  Recovery calls the optional ``on_recover()`` hook.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..errors import SimulationError
from ..sim.events import Signal
from ..sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Kernel
    from .executor import BoundedExecutor

__all__ = ["Node"]


class Node:
    """One simulated host: identity, up/down state, and hosted services."""

    def __init__(self, name: str, kernel: "Kernel"):
        self.name = name
        self.kernel = kernel
        self.up = True
        self.services: dict[str, Any] = {}
        #: live handlers by completion signal, in spawn order
        self._handlers: dict[Signal, Process] = {}
        self.crash_count = 0
        #: when set, inbound requests pass admission control (bounded
        #: worker pool + queue) instead of spawning unboundedly.
        self.executor: Optional["BoundedExecutor"] = None

    # -- services -----------------------------------------------------------
    def register_service(self, name: str, service: Any) -> None:
        if name in self.services:
            raise SimulationError(f"node {self.name}: duplicate service {name!r}")
        self.services[name] = service

    def service(self, name: str) -> Any:
        try:
            return self.services[name]
        except KeyError:
            raise SimulationError(f"node {self.name}: no service {name!r}") from None

    def track_handler(self, proc: Process) -> None:
        """Remember an in-flight handler process so crash can kill it;
        it is forgotten (and its frame let go) the moment it finishes."""
        self._handlers[proc.done] = proc
        proc.done.add_waiter(self._forget_handler)

    def _forget_handler(self, done: Signal) -> None:
        self._handlers.pop(done, None)

    # -- crash / recovery ------------------------------------------------------
    def crash(self) -> None:
        """Stop the node: kill in-flight handlers, notify services."""
        if not self.up:
            return
        self.up = False
        self.crash_count += 1
        # A killed handler forgets itself: iterate over a copy.
        for proc in list(self._handlers.values()):
            proc._kill()
        self._handlers.clear()
        if self.executor is not None:
            self.executor.reset()
        for service in self.services.values():
            hook = getattr(service, "on_crash", None)
            if hook is not None:
                hook()

    def recover(self) -> None:
        if self.up:
            return
        self.up = True
        for service in self.services.values():
            hook = getattr(service, "on_recover", None)
            if hook is not None:
                hook()

    def __repr__(self) -> str:
        state = "up" if self.up else "CRASHED"
        return f"Node({self.name!r}, {state}, services={sorted(self.services)})"
