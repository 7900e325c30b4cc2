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


_TERMINAL = {ProcessState.FINISHED, ProcessState.FAILED, ProcessState.KILLED}


def _format_name(name: ProcessName, pid: int) -> str:
    """A process's name, built when something reads it (a ``repr``, a
    trace record, an error's text) — for most processes, never."""
    if not isinstance(name, str):
        name = name()
    return name or f"proc-{pid}"


class _Done(Signal):
    """A process's completion signal, ``<process name>.done``: ``name``
    shadows the base class's slot with a property.  It holds what the
    name is made of and never the process: a back-reference would be a
    cycle, and a finished process has to die by reference count.  The
    one waiter that does capture its process is ``Kernel.adopt``'s
    release of a borrowed span base: a cycle only while the child lives
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
    Join(proc)`` is sugar for waiting on it.

    ``__slots__`` and the ``_terminal`` flag are deliberate: population
    workloads hold 10⁵+ live processes, and the kernel checks
    ``_terminal`` before every step, so both memory-per-process and the
    terminal check are hot.
    """

    __slots__ = ("pid", "_name", "daemon", "generator", "state", "done",
                 "_terminal", "_resume_value", "_resume_error")

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
        self.state = ProcessState.READY
        self.done = _Done(name, pid)
        # Kernel bookkeeping: terminal flag (mirrors ``state``, cheap to
        # poll) and the value/exception to send on next resume.  The
        # kernel schedules the Process object itself as a timer action,
        # so no per-process callback object exists at all.
        self._terminal = False
        self._resume_value: Any = None
        self._resume_error: Optional[BaseException] = None

    # -- status ---------------------------------------------------------
    @property
    def name(self) -> str:
        """The name it was spawned with (a callable is asked now, not at
        spawn), or ``proc-<pid>``."""
        return _format_name(self._name, self.pid)

    @property
    def finished(self) -> bool:
        return self._terminal

    @property
    def result(self) -> Any:
        """Return value of the process; raises if it failed or is alive."""
        if not self.finished:
            raise SimulationError(f"{self.name} has not finished")
        return self.done.value

    @property
    def error(self) -> Optional[BaseException]:
        return self.done.error

    # -- kernel-internal lifecycle ---------------------------------------
    def _set_resume(self, value: Any = None, error: Optional[BaseException] = None) -> None:
        self._resume_value = value
        self._resume_error = error

    def _take_resume(self) -> tuple[Any, Optional[BaseException]]:
        value, error = self._resume_value, self._resume_error
        self._resume_value, self._resume_error = None, None
        return value, error

    def _finish(self, value: Any) -> None:
        self.state = ProcessState.FINISHED
        self._terminal = True
        self.done.fire(value)

    def _fail(self, error: BaseException) -> None:
        self.state = ProcessState.FAILED
        self._terminal = True
        self.done.fail(error)

    def kill(self) -> None:
        """Terminate the process externally (public API).

        Closes the generator (running its ``finally`` blocks) and fails
        ``done`` with :class:`ProcessKilled`.  Killing a finished or
        already-killed process is a no-op.
        """
        if self._terminal:
            return
        self.state = ProcessState.KILLED
        self._terminal = True
        try:
            self.generator.close()
        except Exception:  # pragma: no cover - close() rarely raises
            pass
        self.done.fail(ProcessKilled(f"{self.name} was killed"))

    # Kept for kernel-internal call sites and backward compatibility.
    _kill = kill

    def __repr__(self) -> str:
        return f"Process({self.name!r}, pid={self.pid}, state={self.state.value})"
