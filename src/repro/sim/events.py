"""Completion signals and the effect vocabulary of simulated processes.

A simulated process is a Python generator.  It communicates with the
kernel by *yielding effects*:

========================  ====================================================
``yield Sleep(d)``        suspend for ``d`` seconds of virtual time
``yield Wait(sig)``       suspend until ``sig`` fires; resumes with its value
``yield Wait(sig, t)``    same, but raise :class:`TimeoutFailure` after ``t``
``yield Fork(gen)``       spawn a child process; resumes with its handle
``yield Join(proc)``      suspend until ``proc`` finishes; resumes with result
``yield Now()``           resumes immediately with the current virtual time
========================  ====================================================

Ordinary ``yield from`` composes sub-generators without kernel
involvement, so simulated code factors into functions naturally.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .process import Process

__all__ = ["Signal", "Sleep", "Wait", "Fork", "Join", "Now"]


class Signal:
    """A one-shot, single-value completion signal.

    A signal starts *pending*; exactly one of :meth:`fire` or
    :meth:`fail` moves it to *fired*.  Processes wait on it with
    ``yield Wait(signal)``; waiters registered after firing are resumed
    immediately by the kernel.
    """

    __slots__ = ("name", "_fired", "_value", "_error", "_waiters")

    def __init__(self, name: str = ""):
        self.name = name
        self._fired = False
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._waiters: list[Callable[["Signal"], None]] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimulationError(f"signal {self.name!r} has not fired")
        if self._error is not None:
            raise self._error
        return self._value

    @property
    def error(self) -> Optional[BaseException]:
        return self._error if self._fired else None

    def fire(self, value: Any = None) -> None:
        """Complete the signal successfully with ``value``."""
        self._complete(value, None)

    def fail(self, error: BaseException) -> None:
        """Complete the signal with an exception."""
        self._complete(None, error)

    def _complete(self, value: Any, error: Optional[BaseException]) -> None:
        if self._fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self._fired = True
        self._value = value
        self._error = error
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            callback(self)

    def add_waiter(self, callback: Callable[["Signal"], None]) -> None:
        """Kernel-internal: register a resumption callback."""
        if self._fired:
            callback(self)
        else:
            self._waiters.append(callback)

    def discard_waiter(self, callback: Callable[["Signal"], None]) -> None:
        """Kernel-internal: remove a callback (used by timed-out waits)."""
        try:
            self._waiters.remove(callback)
        except ValueError:
            pass

    def __repr__(self) -> str:
        state = "fired" if self._fired else "pending"
        return f"Signal({self.name!r}, {state})"


# Effects are deliberately plain ``__slots__`` classes rather than
# (frozen) dataclasses: one is allocated per kernel event, and a frozen
# dataclass pays an ``object.__setattr__`` per field on every
# construction — measurable at population scale (10⁵+ client sessions).


class Sleep:
    """Suspend the yielding process for ``duration`` seconds."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if not duration >= 0:               # NaN is refused too
            raise SimulationError(f"cannot sleep for {duration}s")
        self.duration = duration

    def __repr__(self) -> str:
        return f"Sleep({self.duration!r})"


class Wait:
    """Suspend until ``signal`` fires, optionally bounded by ``timeout``.

    On success the process resumes with the signal's value; if the signal
    failed, its exception is thrown into the process; if the timeout
    elapses first, :class:`repro.errors.TimeoutFailure` is thrown.
    """

    __slots__ = ("signal", "timeout")

    def __init__(self, signal: Signal, timeout: Optional[float] = None):
        if timeout is not None and not timeout >= 0:    # or NaN
            raise SimulationError(f"timeout must be >= 0, got {timeout}")
        self.signal = signal
        self.timeout = timeout

    def __repr__(self) -> str:
        return f"Wait({self.signal!r}, timeout={self.timeout!r})"


class Fork:
    """Spawn ``generator`` as a new process; resume with its handle."""

    __slots__ = ("generator", "name", "daemon")

    def __init__(self, generator: Generator, name: str = "",
                 daemon: bool = False):
        self.generator = generator
        self.name = name
        self.daemon = daemon

    def __repr__(self) -> str:
        return f"Fork({self.name!r}, daemon={self.daemon})"


class Join:
    """Suspend until ``process`` finishes; resume with its return value.

    If the process died with an exception, that exception is rethrown in
    the joiner.  An optional timeout raises ``TimeoutFailure``.
    """

    __slots__ = ("process", "timeout")

    def __init__(self, process: "Process", timeout: Optional[float] = None):
        self.process = process
        self.timeout = timeout

    def __repr__(self) -> str:
        return f"Join({self.process!r}, timeout={self.timeout!r})"


class Now:
    """Resume immediately with the current virtual time."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Now()"
