"""Process handles for the discrete-event kernel."""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, Optional, Union

from ..errors import ProcessKilled, SimulationError
from .events import Signal

__all__ = ["Process", "ProcessState"]

#: a process's name as given: the string, or a callable that formats it
ProcessName = Union[str, Callable[[], str]]


class ProcessState(enum.Enum):
    READY = "ready"          # scheduled to run (new or resumed)
    RUNNING = "running"      # currently executing a step
    WAITING = "waiting"      # suspended on a Sleep/Wait/Join
    FINISHED = "finished"    # returned normally
    FAILED = "failed"        # raised an exception
    KILLED = "killed"        # killed externally


# Hot-path constants, as in ``kernel.py``: an enum attribute load goes
# through the metaclass, and every spawn, finish and kill writes one.
_READY = ProcessState.READY
_FINISHED = ProcessState.FINISHED
_FAILED = ProcessState.FAILED
_KILLED = ProcessState.KILLED


def _format_name(name: ProcessName, pid: int) -> str:
    """A process's name, built when something reads it (a ``repr``,
    an error's text) — for most processes, never."""
    if not isinstance(name, str):
        name = name()
    return name or f"proc-{pid}"


class _Done(Signal):
    """A process's completion signal, ``<process name>.done``: ``name``
    shadows the base class's slot with a property.  It holds what the
    name is made of and never the process: a back-reference would be a
    cycle, and a finished process has to die by reference count.  The
    one waiter that does capture its process is ``Kernel.adopt``'s
    release of a borrowed span base, hung only while a span recorder is
    attached: a cycle only while the child lives
    (completing swaps ``_waiters`` out), so a finished child still dies
    by count and only an adopted one that never finishes waits for the
    collector."""

    __slots__ = ("_process_name", "_pid")

    def __init__(self, process_name: ProcessName, pid: int):
        self._process_name = process_name
        self._pid = pid
        # Signal.__init__ less the name, without a second frame per
        # process (tests/test_rpc_host_cost.py holds the two equal)
        self._fired = False
        self._value = None
        self._error = None
        self._waiters = []

    @property
    def name(self) -> str:
        return f"{_format_name(self._process_name, self._pid)}.done"


class Process:
    """Handle for one simulated process (a generator driven by the kernel).

    The completion :class:`Signal` (``proc.done``) fires with the
    generator's return value, or fails with its exception; ``yield
    Join(proc)`` is sugar for waiting on it.  It is built the first
    time something asks for it: most processes are never waited on.
    The outcome is kept on the process itself (``_value`` / ``_error``,
    written when it ends), so a ``done`` first asked after the end is
    born fired with it.

    ``__slots__`` and the ``_terminal`` flag are deliberate: population
    workloads hold 10⁵+ live processes, and the kernel checks
    ``_terminal`` before every step, so both memory-per-process and the
    terminal check are hot.

    A process is its own scheduler entry: the kernel queues it, not a
    wrapper, to resume it at ``time`` (written when it is queued; it is
    never in the queue twice), and no one can cancel it.
    """

    __slots__ = ("pid", "_name", "daemon", "generator", "state", "_done",
                 "_terminal", "_resume_value", "_resume_error",
                 "_value", "_error", "time", "_on_exit")

    #: the scheduler skips cancelled entries; a process never is one
    cancelled = False

    def __init__(self, generator: Generator, pid: int,
                 name: ProcessName = "", daemon: bool = False):
        #: minted by the kernel that runs it (an anonymous process is
        #: ``proc-<pid>``, and failure text carrying that name is sized on
        #: the wire: it may depend on the kernel's history, never on the
        #: host process's)
        self.pid = pid
        self._name = name
        self.daemon = daemon
        self.generator = generator
        self.state = _READY
        self._done: Optional[_Done] = None
        # Kernel bookkeeping: terminal flag (mirrors ``state``, cheap to
        # poll) and the value/exception to send on next resume.  The
        # kernel queues the Process object itself, so no per-process
        # entry or callback object exists at all.
        self._terminal = False
        self._resume_value: Any = None
        self._resume_error: Optional[BaseException] = None
        # The outcome, once it ends (``done`` is fired with it too, if
        # it has been asked for).
        self._value: Any = None
        self._error: Optional[BaseException] = None
        # One callback, called with the process when it ends, before
        # ``done`` fires: the node that tracks it as a handler.
        self._on_exit: Optional[Callable[["Process"], None]] = None

    # -- status ---------------------------------------------------------
    @property
    def name(self) -> str:
        """The name it was spawned with (a callable is asked now, not at
        spawn), or ``proc-<pid>``."""
        return _format_name(self._name, self.pid)

    @property
    def done(self) -> Signal:
        """The completion signal, built on first ask (fired already if
        the process has ended)."""
        done = self._done
        if done is None:
            done = self._done = _Done(self._name, self.pid)
            if self._terminal:
                done._fired = True
                done._value = self._value
                done._error = self._error
        return done

    @property
    def finished(self) -> bool:
        return self._terminal

    @property
    def result(self) -> Any:
        """Return value of the process; raises if it failed or is alive."""
        if not self._terminal:
            raise SimulationError(f"{self.name} has not finished")
        if self._error is not None:
            raise self._error
        return self._value

    @property
    def error(self) -> Optional[BaseException]:
        return self._error

    # -- kernel-internal lifecycle ---------------------------------------
    # The frozen seed kernel (the scheduler's test oracle) resumes
    # through this; the kernel writes the two slots itself.
    def _set_resume(self, value: Any = None, error: Optional[BaseException] = None) -> None:
        self._resume_value = value
        self._resume_error = error

    def _finish(self, value: Any) -> None:
        self.state = _FINISHED
        self._terminal = True
        self._value = value
        if self._on_exit is not None:
            self._on_exit(self)
        done = self._done
        if done is not None:
            done.fire(value)

    def _fail(self, error: BaseException) -> None:
        self.state = _FAILED
        self._terminal = True
        self._error = error
        if self._on_exit is not None:
            self._on_exit(self)
        done = self._done
        if done is not None:
            done.fail(error)

    def kill(self) -> None:
        """Terminate the process externally (public API).

        Closes the generator (running its ``finally`` blocks), runs the
        exit callback, and fails ``done`` with :class:`ProcessKilled`.
        Killing a finished or already-killed process is a no-op.
        """
        if self._terminal:
            return
        self.state = _KILLED
        self._terminal = True
        # The outcome is set before the ``finally`` blocks run, so a
        # ``done`` one of them asks for is born failed; a ``done`` asked
        # earlier fails after them.
        error = ProcessKilled(f"{self.name} was killed")
        self._error = error
        done = self._done
        try:
            self.generator.close()
        except Exception:  # pragma: no cover - close() rarely raises
            pass
        if self._on_exit is not None:
            self._on_exit(self)
        if done is not None:
            done.fail(error)

    def __repr__(self) -> str:
        return f"Process({self.name!r}, pid={self.pid}, state={self.state.value})"
