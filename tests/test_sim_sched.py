"""Scheduler equivalence: the instant heap is observably the heap.

The kernel's contract is time order, and within an instant scheduling
order — the seed kernel's ``(time, seq)`` order, though the shipped one
stamps nothing.  The instant-heap scheduler reorganises storage (one
heap entry per distinct time, one push-ordered list per instant, batch
draining) but must never reorganise *observable order*.  These tests
are differential: the same randomized schedule runs through the
shipped kernel and the frozen seed kernel (``tests/seed_kernel.py``:
one binary heap, one event per loop iteration), and every observable —
execution order, timestamps, final RNG draws — must be identical.

The randomized programs deliberately cover the hard cases: same-instant
ties (batch dispatch), cancellations (lazy removal), far-future and
infinite timers (instants that stay pending), zero-delay chains
(live-batch appends), and ``run(until=...)`` splits and mid-instant
stops (an instant reported but not consumed, a batch requeued, twice
in one instant).
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import (
    Fork,
    InstantHeap,
    Join,
    Kernel,
    Now,
    Signal,
    Sleep,
    Wait,
)
from repro.sim.process import Process
from repro.sim.sched import _Scheduled

from seed_kernel import Kernel as SeedKernel


# ---------------------------------------------------------------------------
# differential determinism: randomized programs, identical observables
# ---------------------------------------------------------------------------

def _random_program(kernel, rng_seed: int, log: list):
    """Build a randomized but deterministic workload on ``kernel``.

    All randomness comes from a ``random.Random(rng_seed)`` *outside*
    the kernel, so the same script is replayed on every kernel variant.
    Appends ``(now, tag)`` tuples to ``log`` at every step.
    """
    rng = random.Random(rng_seed)
    gate = Signal(name="gate")

    def worker(wid: int, steps: int):
        for s in range(steps):
            roll = rng.random()
            if roll < 0.45:
                # Quantized durations force same-instant ties across
                # workers; exact floats keep schedules reproducible.
                yield Sleep(rng.choice([0.0, 0.001, 0.001, 0.005, 0.02]))
            elif roll < 0.6:
                yield Sleep(rng.random() * 0.03)
            elif roll < 0.7:
                now = yield Now()
                log.append((now, f"w{wid}.now{s}"))
                continue
            elif roll < 0.8:
                child = yield Fork(sleeper(rng.random() * 0.01),
                                   name=f"w{wid}.c{s}")
                yield Join(child)
            elif roll < 0.9:
                try:
                    yield Wait(gate, timeout=rng.choice([0.002, 0.05]))
                except Exception:
                    pass
            else:
                # Far-future timer that run() never reaches: its
                # instant stays pending, cancelled.
                cancel = kernel.call_soon(lambda: log.append(("far", wid)),
                                          delay=rng.choice([1e6, math.inf]))
                cancel()
            log.append((kernel.now, f"w{wid}.s{s}"))

    def sleeper(duration: float):
        yield Sleep(duration)
        return duration

    def firer():
        yield Sleep(0.013)
        gate.fire("open")
        log.append((kernel.now, "gate-fired"))

    for wid in range(6):
        kernel.spawn(worker(wid, 12), name=f"w{wid}")
    kernel.spawn(firer(), name="firer")
    # Zero-delay chains: callbacks that schedule more callbacks at the
    # same instant (live-batch appends must keep push order).
    def chain(depth: int):
        log.append((kernel.now, f"chain{depth}"))
        if depth:
            kernel.call_soon(lambda: chain(depth - 1))
    kernel.call_soon(lambda: chain(3), delay=0.004)
    # A cancelled timer that would otherwise land mid-run.
    cancel = kernel.call_soon(lambda: log.append((kernel.now, "cancelled!")),
                              delay=0.006)
    cancel()


def _observe(kernel_factory, rng_seed: int, split: float = None,
             stop_at: float = None, stop_again: bool = False):
    kernel = kernel_factory()
    log = []
    _random_program(kernel, rng_seed, log)
    if split is not None:
        # Stop mid-schedule, then resume: the instant beyond `until`
        # was reported, not consumed.
        kernel.run(until=split)
        log.append((kernel.now, "--split--"))
    if stop_at is not None:
        # Run a process that finishes at ``stop_at`` with an action
        # queued behind it at the same instant: run_process stops
        # between the two, mid-instant, then the rest of the interrupted
        # batch must be requeued in order.
        def stopper():
            yield Sleep(stop_at)
            kernel.call_soon(lambda: log.append((kernel.now, "behind")))
            log.append((kernel.now, "stopper"))

        kernel.run_process(stopper(), name="stopper")
        log.append((kernel.now, "--stopped--"))
        if stop_again:
            # A zero-delay action lands behind the requeued rest, and a
            # second run_process stops mid-instant again at that instant.
            kernel.call_soon(lambda: log.append((kernel.now, "between")))

            def restopper():
                yield Sleep(0.0)
                kernel.call_soon(lambda: log.append((kernel.now, "behind-2")))
                log.append((kernel.now, "restopper"))

            kernel.run_process(restopper(), name="restopper")
            log.append((kernel.now, "--stopped-again--"))
    kernel.run()
    draws = kernel.stream("after").random()
    return log, kernel.now, draws


@pytest.mark.parametrize("rng_seed", range(8))
def test_wheel_matches_heap_on_randomized_schedules(rng_seed):
    heap_obs = _observe(lambda: SeedKernel(seed=3), rng_seed)
    wheel_obs = _observe(lambda: Kernel(seed=3), rng_seed)
    assert heap_obs == wheel_obs


@pytest.mark.parametrize("rng_seed", range(4))
def test_new_kernel_matches_frozen_seed_kernel(rng_seed):
    """``run_process`` stops the shipped kernel's one dispatch loop by a
    flag its process's completion sets, and the seed kernel's by polling
    ``stop_when``; both stop mid-instant at the same action."""
    stop_at = 0.005 + 0.004 * rng_seed
    seed_obs = _observe(lambda: SeedKernel(seed=3), rng_seed, stop_at=stop_at)
    new_obs = _observe(lambda: Kernel(seed=3), rng_seed, stop_at=stop_at)
    assert seed_obs == new_obs
    log = new_obs[0]
    stopped = log.index((stop_at, "--stopped--"))
    assert log[stopped - 1] == (stop_at, "stopper")
    # the instant goes on after the stop: at least the queued action
    assert log[stopped + 1][0] == stop_at
    assert (stop_at, "behind") in log[stopped + 1:]


@pytest.mark.parametrize("rng_seed", range(4))
@pytest.mark.parametrize("split", [0.0105, 0.02])
def test_until_split_mid_slot_preserves_order(rng_seed, split):
    """run(until=...) then resume: identical to an uninterrupted run."""
    whole = _observe(lambda: Kernel(seed=3), rng_seed)
    parts = _observe(lambda: Kernel(seed=3), rng_seed, split=split)
    # Drop the split marker; everything else must line up exactly.
    split_log = [e for e in parts[0] if e[1] != "--split--"]
    assert split_log == whole[0]
    assert parts[1] == whole[1]
    # And the split run still matches the heap run split the same way.
    heap_parts = _observe(lambda: SeedKernel(seed=3), rng_seed, split=split)
    assert parts == heap_parts


@settings(max_examples=50)
@given(rng_seed=st.integers(0, 2**16),
       split=st.none() | st.integers(1, 40).map(lambda k: k * 0.0005),
       stop_at=st.none() | st.integers(0, 30).map(lambda k: k * 0.001),
       stop_again=st.booleans())
def test_any_split_and_stops_match_the_seed_kernel(rng_seed, split, stop_at,
                                                    stop_again):
    """Same-instant order rests on push order alone: over random
    programs, an optional ``until`` split, an optional mid-instant stop
    and a second stop at that same instant, the shipped kernel's log,
    clock and random draws are the seed kernel's."""
    stop_again = stop_again and stop_at is not None
    assert (_observe(lambda: Kernel(seed=3), rng_seed, split, stop_at,
                     stop_again)
            == _observe(lambda: SeedKernel(seed=3), rng_seed, split, stop_at,
                        stop_again))


def test_two_stops_in_one_instant_run_it_in_push_order(monkeypatch):
    """``run_process`` stops mid-instant, a ``call_soon(0)`` lands at
    that instant, and a second ``run_process`` stops in it again: each
    ``requeue`` finds nothing pending at its instant, so putting the
    rest back with a plain push keeps the seed kernel's order."""
    requeued = []
    requeue = InstantHeap.requeue

    def checked_requeue(self, entries):
        entries = list(entries)
        assert not any(e.time in self._groups for e in entries)
        requeued.append(len(entries))
        requeue(self, entries)

    def scenario(kernel):
        log = []

        def note(tag, then=None):
            def action():
                log.append((kernel.now, tag))
                if then is not None:
                    kernel.call_soon(note(then))
            return action

        def stopper(tag, pause):
            yield Sleep(pause)
            kernel.call_soon(note(f"behind-{tag}"))
            log.append((kernel.now, tag))

        kernel.call_soon(note("a"), delay=0.5)
        # Pushed at 0.25: they land behind the first stopper's wake.
        kernel.call_soon(lambda: kernel.call_soon(note("b", then="b+0"), 0.25),
                         delay=0.25)
        kernel.call_soon(lambda: kernel.call_soon(note("c"), 0.25),
                         delay=0.25)
        kernel.run_process(stopper("first", 0.5), name="first")
        log.append((kernel.now, "--stop--"))
        kernel.call_soon(note("between"))
        kernel.run_process(stopper("second", 0.0), name="second")
        log.append((kernel.now, "--stop--"))
        kernel.run()
        return log, kernel.now

    seed = scenario(SeedKernel(seed=3))
    monkeypatch.setattr(InstantHeap, "requeue", checked_requeue)
    assert scenario(Kernel(seed=3)) == seed
    assert requeued == [3, 1]
    assert seed == ([(0.5, tag) for tag in (
        "a", "first", "--stop--", "b", "c", "behind-first", "between",
        "b+0", "second", "--stop--", "behind-second")], 0.5)


# ---------------------------------------------------------------------------
# a process is its own queue entry, and is never queued twice
# ---------------------------------------------------------------------------

class _OnceQueued(InstantHeap):
    """An instant heap that holds each process from the moment it is
    queued — pushed here, or appended to the kernel's live batch — until
    the run loop takes it from the batch, and fails the moment a process
    is queued while it is held."""

    def __init__(self, kernel):
        super().__init__()
        self.held = set()
        self.queued = 0
        kernel._sched = self
        kernel._batch = _LiveBatch(self)

    def hold(self, entry):
        if entry.__class__ is Process:
            assert entry not in self.held, f"{entry!r} queued twice"
            self.held.add(entry)
            self.queued += 1

    def push(self, entry):
        self.hold(entry)
        super().push(entry)

    def requeue(self, entries):
        # the rest of an interrupted batch goes back: held again by push
        entries = list(entries)
        self.held.difference_update(entries)
        super().requeue(entries)


class _LiveBatch(list):
    """The kernel's live batch: an append queues, the loop's walk takes."""

    def __init__(self, heap):
        super().__init__()
        self.heap = heap

    def append(self, entry):
        self.heap.hold(entry)
        super().append(entry)

    def __iter__(self):
        index = 0
        while index < len(self):
            entry = self[index]
            index += 1
            self.heap.held.discard(entry)
            yield entry


_EFFECT = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 0.001, 0.002, 0.005])),
    st.tuples(st.just("wait"), st.integers(0, 2),
              st.sampled_from([None, 0.0, 0.001, 0.004])),
    st.tuples(st.just("join"), st.integers(0, 7),
              st.sampled_from([None, 0.0, 0.002])),
    st.tuples(st.just("fork"), st.sampled_from([0.0, 0.001, 0.003])),
    st.tuples(st.just("now")),
    st.tuples(st.just("kill"), st.integers(0, 7)),
)


def _scripted(kernel, scripts, log):
    """Workers that run ``scripts`` (one list of effects each) on
    ``kernel``; every outcome is logged with the virtual time."""
    gates = [Signal(name=f"gate{k}") for k in range(3)]   # gate2 never fires
    procs = []

    def child(duration):
        yield Sleep(duration)
        return duration

    def worker(wid, script):
        for step, (kind, *args) in enumerate(script):
            tag = f"w{wid}.{step}.{kind}"
            try:
                if kind == "sleep":
                    yield Sleep(args[0])
                    outcome = None
                elif kind == "wait":
                    outcome = yield Wait(gates[args[0]], timeout=args[1])
                elif kind == "join":
                    target = procs[args[0] % len(procs)]
                    outcome = yield Join(target, timeout=args[1])
                elif kind == "fork":
                    forked = yield Fork(child(args[0]), name=f"{tag}.child")
                    procs.append(forked)
                    outcome = forked.pid
                elif kind == "now":
                    outcome = yield Now()
                else:
                    target = procs[args[0] % len(procs)]
                    if target is not procs[wid]:
                        kernel.kill(target)
                    outcome = target.pid
            except Exception as exc:  # noqa: BLE001 - logged
                outcome = type(exc).__name__
            log.append((kernel.now, tag, outcome))
        return wid

    def firer():
        yield Sleep(0.002)
        gates[0].fire("open")
        yield Sleep(0.001)
        gates[1].fail(RuntimeError("shut"))
        log.append((kernel.now, "fired"))

    for wid, script in enumerate(scripts):
        procs.append(kernel.spawn(worker(wid, script), name=f"w{wid}"))
    kernel.spawn(firer(), name="firer")


def _run_scripts(kernel, scripts, split):
    log = []
    _scripted(kernel, scripts, log)
    if split is not None:
        kernel.run(until=split)
        log.append((kernel.now, "--split--"))
    kernel.run()
    events = kernel.obs.metrics.value("kernel.events")
    return log, kernel.now, events, kernel.stream("after").random()


@settings(max_examples=60)
@given(scripts=st.lists(st.lists(_EFFECT, max_size=8), min_size=1,
                        max_size=4),
       split=st.none() | st.integers(0, 12).map(lambda k: k * 0.001))
def test_no_process_is_ever_queued_twice(scripts, split):
    """Over schedules that mix Sleep, timed Wait, Join, Fork, Now and
    kill, split by an optional ``run(until=…)``: the order, clock,
    event count and random draws are the seed kernel's, and no process
    is queued while it already sits in the queue or the live batch."""
    kernel = Kernel(seed=3)
    heap = _OnceQueued(kernel)
    shipped = _run_scripts(kernel, scripts, split)
    assert shipped == _run_scripts(SeedKernel(seed=3), scripts, split)
    # every process queued was taken: the walk saw them all
    assert heap.held == set()
    assert heap.queued >= len(scripts) + 1


# ---------------------------------------------------------------------------
# instant-heap mechanics: the hard cases, exercised directly
# ---------------------------------------------------------------------------

def _drain(sched):
    """Pop everything in dispatch order via the kernel protocol."""
    order = []
    while sched.next_instant(order) is not None:
        pass
    return order


def test_wheel_orders_ties_and_slots_like_heap():
    rng = random.Random(5)
    sched = InstantHeap()
    stamps = []
    for label in range(500):
        when = rng.choice([0.0, 0.001, 0.0010000001, 0.5, 7.25, 1e30,
                           math.inf, rng.random() * 3.0])
        stamps.append((when, label))
        sched.push(_Scheduled(when, label))
    assert len(sched) == 500
    # The ordering contract, written down: time order, and push order
    # within a time.
    assert [(e.time, e.action) for e in _drain(sched)] == sorted(stamps)
    assert len(sched) == 0


def test_far_future_and_infinite_times_are_instants_like_any_other():
    sched = InstantHeap()
    near = _Scheduled(0.001, "near")
    far = _Scheduled(1e30, "far")
    farther = _Scheduled(math.inf, "farther")
    nearer_far_pushed_later = _Scheduled(1e29, "nearer-far")
    also_infinite = _Scheduled(math.inf, "also-infinite")
    for e in (far, near, farther, nearer_far_pushed_later, also_infinite):
        sched.push(e)
    assert len(sched) == 5
    batches = []
    while True:
        batch = []
        when = sched.next_instant(batch)
        if when is None:
            break
        batches.append((when, [e.action for e in batch]))
    assert batches == [(0.001, ["near"]), (1e29, ["nearer-far"]),
                       (1e30, ["far"]),
                       (math.inf, ["farther", "also-infinite"])]


def test_wheel_cancellation_is_lazy_but_exact():
    sched = InstantHeap()
    entries = [_Scheduled(0.001 * i, i) for i in range(10)]
    for e in entries:
        sched.push(e)
    entries[0].cancel()
    entries[5].cancel()
    entries[9].cancel()
    got = _drain(sched)
    assert [e.action for e in got] == [1, 2, 3, 4, 6, 7, 8]
    assert len(sched) == 0


def test_cancelled_heads_are_dropped_and_later_ones_left_to_the_kernel():
    sched = InstantHeap()
    entries = [_Scheduled(0.5, i) for i in range(5)]
    for e in entries:
        sched.push(e)
    entries[0].cancel()
    entries[1].cancel()
    entries[3].cancel()
    batch = []
    assert sched.next_instant(batch) == 0.5
    assert [e.action for e in batch] == [2, 3, 4]
    assert len(sched) == 0


def test_an_instant_whose_entries_are_all_cancelled_never_advances_the_clock():
    kernel = Kernel()
    log = []
    kernel.call_soon(lambda: log.append(kernel.now), delay=0.25)
    dead = [kernel.call_soon(lambda: log.append("dead"), delay=delay)
            for delay in (0.5, 0.5, 0.75)]
    for cancel in dead:
        cancel()
    kernel.run()
    assert log == [0.25]
    assert kernel.now == 0.25
    assert len(kernel._sched) == 0


def test_wheel_requeue_into_active_slot_keeps_order():
    sched = InstantHeap()
    entries = [_Scheduled(0.5, i) for i in range(6)]
    for e in entries:
        sched.push(e)
    batch = []
    assert sched.next_instant(batch) == 0.5
    assert [e.action for e in batch] == [0, 1, 2, 3, 4, 5]
    sched.requeue(batch[3:])                 # run_process stopped us
    sched.push(_Scheduled(0.5, 6))           # and new work arrived
    batch2 = []
    assert sched.next_instant(batch2) == 0.5
    assert [e.action for e in batch2] == [3, 4, 5, 6]
    assert len(sched) == 0


def test_an_until_split_leaves_the_next_instant_pending():
    sched = InstantHeap()
    a = _Scheduled(10.25, "a")
    b = _Scheduled(10.75, "b")
    sched.push(a)
    sched.push(b)
    batch = []
    assert sched.next_instant(batch) == 10.25    # consumed; 10.75 pending
    assert batch == [a]
    # `until` short of the next event: its time is reported, nothing is
    # consumed.
    assert sched.next_instant(batch, until=10.3) == 10.75
    assert batch == [a] and len(sched) == 1
    # Later work lands *earlier* (a run(until=10.3) resumed with a
    # shorter timer): it is reached first.
    c = _Scheduled(5.5, "c")
    sched.push(c)
    batch2 = []
    assert sched.next_instant(batch2) == 5.5
    assert batch2 == [c]
    batch3 = []
    assert sched.next_instant(batch3, until=10.75) == 10.75
    assert batch3 == [b]
    assert sched.next_instant(batch3) is None
    assert batch3 == [b]
    assert len(sched) == 0


# ---------------------------------------------------------------------------
# NaN is no time: every way in refuses it
# ---------------------------------------------------------------------------

def test_sleep_refuses_nan():
    with pytest.raises(SimulationError):
        Sleep(math.nan)


def test_wait_refuses_a_nan_timeout():
    with pytest.raises(SimulationError):
        Wait(Signal(), timeout=math.nan)


def test_call_soon_refuses_a_nan_delay():
    kernel = Kernel()
    with pytest.raises(SimulationError):
        kernel.call_soon(lambda: None, delay=math.nan)
    assert len(kernel._sched) == 0
