"""Frozen reference kernel: the pre-refactor heapq event loop.

This is the seed implementation of :class:`repro.sim.Kernel`, kept
verbatim (one global binary heap, one event dispatched per loop
iteration, a fresh resume closure per wake, and the host-clock counter
the shipped kernel has since dropped).  It is the differential oracle
``tests/test_sim_sched.py`` replays randomized schedules through: this
kernel and the shipped one must agree on event order, timestamps and
traces, and any divergence is a bug in the shipped kernel, by
definition.

Do not modernise this file; its value is that it does not change.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Any, Callable, Generator, Optional

from repro.errors import SimulationError, TimeoutFailure
from repro.obs import Observability
from repro.sim.clock import Clock
from repro.sim.events import Fork, Join, Now, Signal, Sleep, Wait
from repro.sim.process import Process, ProcessState
from repro.sim.rng import RandomRouter, Stream
from repro.sim.tracing import TraceLog

__all__ = ["Kernel"]


class _Scheduled:
    """Heap entry: an action to run at a virtual time."""

    __slots__ = ("time", "seq", "action", "cancelled")

    def __init__(self, time: float, seq: int, action: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.action = action
        self.cancelled = False

    def __lt__(self, other: "_Scheduled") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class Kernel:
    """Discrete-event scheduler driving generator-based processes."""

    def __init__(self, seed: int = 0, trace: bool = False):
        self.clock = Clock()
        self.random = RandomRouter(seed)
        self.trace = TraceLog(enabled=trace, clock=self.clock)
        self._queue: list[_Scheduled] = []
        self._seq = itertools.count()
        # pids are the running kernel's to mint (the one line here newer
        # than the seed: ``Process`` no longer counts per host process)
        self._pids = itertools.count(1)
        self._processes: list[Process] = []
        self._running: Optional[Process] = None
        # One observability surface per kernel: metrics + spans, timed by
        # the virtual clock, span parentage keyed by the running process.
        self.obs = Observability(self.clock, context_key=lambda: self._running)
        # Hot path: instruments are resolved once, not per event.
        self._m_events = self.obs.metrics.counter("kernel.events")
        self._m_queue_depth = self.obs.metrics.gauge("kernel.queue_depth")
        self._m_wall = self.obs.metrics.counter("kernel.wall_seconds")
        self._m_sim = self.obs.metrics.counter("kernel.sim_seconds")

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def current_process(self) -> Optional["Process"]:
        """The process whose generator is being stepped right now (the
        tracer's span-parentage context), or ``None`` between steps.
        Lets code that spawns workers directly — rather than via the
        ``Fork`` effect — adopt the creator's span context."""
        return self._running

    def stream(self, name: str) -> Stream:
        """Named deterministic random stream (see :mod:`repro.sim.rng`)."""
        return self.random.stream(name)

    def spawn(self, generator: Generator, name: str = "", daemon: bool = False) -> Process:
        """Create a process from ``generator`` and schedule its first step."""
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"spawn() needs a generator, got {type(generator).__name__} "
                "(did you forget to call the generator function?)"
            )
        proc = Process(generator, next(self._pids), name=name, daemon=daemon)
        self._processes.append(proc)
        self.trace.record("spawn", process=proc.name)
        self._schedule(0.0, lambda: self._step(proc))
        return proc

    def call_soon(self, action: Callable[[], None], delay: float = 0.0) -> Callable[[], None]:
        """Schedule a plain callback ``delay`` seconds from now.

        Returns a cancel function.  Used by the network layer to model
        message delivery without a full process per message.
        """
        entry = self._schedule(delay, action)

        def cancel() -> None:
            entry.cancelled = True

        return cancel

    def run(self, until: Optional[float] = None,
            stop_when: Optional[Callable[[], bool]] = None) -> None:
        """Run scheduled actions until the queue empties (or ``until``,
        or ``stop_when()`` turns true between actions)."""
        wall_start = time.perf_counter()
        sim_start = self.clock.now
        try:
            while self._queue:
                if stop_when is not None and stop_when():
                    return
                entry = self._queue[0]
                if entry.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and entry.time > until:
                    self.clock.advance_to(until)
                    return
                heapq.heappop(self._queue)
                self.clock.advance_to(entry.time)
                self._m_events.value += 1
                self._m_queue_depth.value = len(self._queue)
                entry.action()
            if until is not None and until > self.clock.now:
                self.clock.advance_to(until)
        finally:
            # Wall-per-sim-time: how much real time one virtual second
            # costs (the simulator's own efficiency, tracked per run).
            self._m_wall.value += time.perf_counter() - wall_start
            self._m_sim.value += self.clock.now - sim_start

    def run_process(self, generator: Generator, name: str = "main", until: Optional[float] = None) -> Any:
        """Spawn ``generator``, run until it finishes, return its result.

        The common entry point for tests and examples.  Stops as soon as
        the process completes (background daemons — replication,
        fault injectors — may still have work queued; they simply stop
        here and resume on the next ``run``).  Raises the process's
        exception if it failed, and ``SimulationError`` if the simulation
        ran out of events or hit ``until`` before the process finished.
        """
        proc = self.spawn(generator, name=name)
        self.run(until=until, stop_when=lambda: proc.finished)
        if not proc.finished:
            raise SimulationError(
                f"simulation ended at t={self.now:.3f} before {name!r} finished "
                f"(state={proc.state.value}; deadlock or `until` too small)"
            )
        return proc.result

    def kill(self, proc: Process) -> None:
        """Terminate ``proc`` (public API; no-op if already finished).

        The generator is closed (its ``finally`` blocks run) and any
        joiner is resumed with :class:`~repro.errors.ProcessKilled`.
        """
        proc.kill()
        self.trace.record("kill", process=proc.name)

    def processes(self) -> list[Process]:
        return list(self._processes)

    def blocked_processes(self) -> list[Process]:
        """Processes suspended with nothing scheduled to wake them."""
        return [
            p for p in self._processes
            if p.state is ProcessState.WAITING and not p.daemon
        ]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _schedule(self, delay: float, action: Callable[[], None]) -> _Scheduled:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        entry = _Scheduled(self.clock.now + delay, next(self._seq), action)
        heapq.heappush(self._queue, entry)
        return entry

    def _step(self, proc: Process, *, throw: Optional[BaseException] = None) -> None:
        """Advance ``proc`` by one generator step and interpret its effect."""
        if proc.finished:
            return
        value, error = proc._take_resume()
        if throw is not None:
            error = throw
        proc.state = ProcessState.RUNNING
        self._running = proc
        try:
            if error is not None:
                effect = proc.generator.throw(error)
            else:
                effect = proc.generator.send(value)
        except StopIteration as stop:
            proc._finish(stop.value)
            self.trace.record("finish", process=proc.name)
            return
        except BaseException as exc:
            proc._fail(exc)
            self.trace.record("fail", process=proc.name, error=repr(exc))
            return
        finally:
            self._running = None
        self._interpret(proc, effect)

    def _interpret(self, proc: Process, effect: Any) -> None:
        if isinstance(effect, Sleep):
            proc.state = ProcessState.WAITING
            self._schedule(effect.duration, lambda: self._resume(proc))
        elif isinstance(effect, Wait):
            self._do_wait(proc, effect.signal, effect.timeout)
        elif isinstance(effect, Join):
            self._do_wait(proc, effect.process.done, effect.timeout)
        elif isinstance(effect, Fork):
            child = self.spawn(effect.generator, name=effect.name, daemon=effect.daemon)
            # A forked child's spans nest under the forker's active span
            # (hedged RPC attempts trace back to the drain that fired them).
            self.obs.tracer.adopt(child, proc)
            proc._set_resume(value=child)
            self._schedule(0.0, lambda: self._step(proc))
        elif isinstance(effect, Now):
            proc._set_resume(value=self.clock.now)
            self._schedule(0.0, lambda: self._step(proc))
        elif isinstance(effect, Signal):
            # Sugar: yielding a bare signal waits on it without timeout.
            self._do_wait(proc, effect, None)
        else:
            err = SimulationError(
                f"{proc.name} yielded {effect!r}, which is not a simulation effect"
            )
            self._schedule(0.0, lambda: self._step(proc, throw=err))

    def _do_wait(self, proc: Process, signal: Signal, timeout: Optional[float]) -> None:
        proc.state = ProcessState.WAITING
        settled = {"done": False}
        timer: list[_Scheduled] = []

        def on_fire(sig: Signal) -> None:
            if settled["done"]:
                return
            settled["done"] = True
            if timer:
                timer[0].cancelled = True
            if sig.error is not None:
                proc._set_resume(error=sig.error)
            else:
                proc._set_resume(value=sig._value)
            self._schedule(0.0, lambda: self._step(proc))

        signal.add_waiter(on_fire)
        if timeout is not None and not settled["done"]:
            def on_timeout() -> None:
                if settled["done"]:
                    return
                settled["done"] = True
                signal.discard_waiter(on_fire)
                proc._set_resume(error=TimeoutFailure(
                    f"wait on {signal.name or 'signal'} timed out after {timeout}s"
                ))
                self._step(proc)

            timer.append(self._schedule(timeout, on_timeout))

    def _resume(self, proc: Process) -> None:
        self._step(proc)

    def __repr__(self) -> str:
        return f"Kernel(now={self.now:.3f}, queued={len(self._queue)}, procs={len(self._processes)})"
