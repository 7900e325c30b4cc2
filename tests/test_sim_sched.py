"""Scheduler equivalence: the instant heap is observably the heap.

The kernel's contract is strict ``(time, seq)`` event order.  The
instant-heap scheduler reorganises storage (one heap entry per distinct
time, one seq-ordered list per instant, batch draining) but must never
reorganise *observable order*.  These tests are differential: the same
randomized schedule runs through the shipped kernel and the frozen seed
kernel (``tests/seed_kernel.py``: one binary heap, one event per loop
iteration), and every observable — execution order, timestamps, trace
records, final RNG draws — must be identical.

The randomized programs deliberately cover the hard cases: same-instant
ties (batch dispatch), cancellations (lazy removal), far-future and
infinite timers (instants that stay pending), zero-delay chains
(live-batch appends), and ``run(until=...)`` splits and mid-instant
stops (an instant reported but not consumed, a batch requeued).
"""

import math
import random

import pytest

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
    # same instant (live-batch appends must keep seq order).
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
             stop_at: float = None):
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


def test_traces_identical_across_schedulers():
    def observe(kernel_cls):
        kernel = kernel_cls(seed=9, trace=True)
        log = []
        _random_program(kernel, 42, log)
        kernel.run()
        return [(r.time, r.kind, tuple(sorted(r.fields.items())))
                for r in kernel.trace.records()]

    assert observe(SeedKernel) == observe(Kernel)


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
    for seq in range(500):
        when = rng.choice([0.0, 0.001, 0.0010000001, 0.5, 7.25, 1e30,
                           math.inf, rng.random() * 3.0])
        stamps.append((when, seq))
        sched.push(_Scheduled(when, seq, None))
    assert len(sched) == 500
    # The ordering contract, written down: one (time, seq)-sorted list.
    assert [(e.time, e.seq) for e in _drain(sched)] == sorted(stamps)
    assert len(sched) == 0


def test_far_future_and_infinite_times_are_instants_like_any_other():
    sched = InstantHeap()
    near = _Scheduled(0.001, 0, None)
    far = _Scheduled(1e30, 1, None)
    farther = _Scheduled(math.inf, 2, None)
    far_low_seq_later_push = _Scheduled(1e29, 3, None)
    also_infinite = _Scheduled(math.inf, 4, None)
    for e in (far, near, farther, far_low_seq_later_push, also_infinite):
        sched.push(e)
    assert len(sched) == 5
    batches = []
    while True:
        batch = []
        when = sched.next_instant(batch)
        if when is None:
            break
        batches.append((when, [e.seq for e in batch]))
    assert batches == [(0.001, [0]), (1e29, [3]), (1e30, [1]),
                       (math.inf, [2, 4])]


def test_wheel_cancellation_is_lazy_but_exact():
    sched = InstantHeap()
    entries = [_Scheduled(0.001 * i, i, None) for i in range(10)]
    for e in entries:
        sched.push(e)
    entries[0].cancel()
    entries[5].cancel()
    entries[9].cancel()
    got = _drain(sched)
    assert [e.seq for e in got] == [1, 2, 3, 4, 6, 7, 8]
    assert len(sched) == 0


def test_cancelled_heads_are_dropped_and_later_ones_left_to_the_kernel():
    sched = InstantHeap()
    entries = [_Scheduled(0.5, i, None) for i in range(5)]
    for e in entries:
        sched.push(e)
    entries[0].cancel()
    entries[1].cancel()
    entries[3].cancel()
    batch = []
    assert sched.next_instant(batch) == 0.5
    assert [e.seq for e in batch] == [2, 3, 4]
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
    entries = [_Scheduled(0.5, i, None) for i in range(6)]
    for e in entries:
        sched.push(e)
    batch = []
    assert sched.next_instant(batch) == 0.5
    assert [e.seq for e in batch] == [0, 1, 2, 3, 4, 5]
    sched.requeue(batch[3:])                 # run_process stopped us
    sched.push(_Scheduled(0.5, 6, None))     # and new work arrived
    batch2 = []
    assert sched.next_instant(batch2) == 0.5
    assert [e.seq for e in batch2] == [3, 4, 5, 6]
    assert len(sched) == 0


def test_requeue_into_a_pending_instant_goes_in_by_seq():
    sched = InstantHeap()
    newer = [_Scheduled(0.5, seq, None) for seq in (7, 9)]
    for e in newer:
        sched.push(e)
    # Stamps older than what is pending at that instant come back.
    sched.requeue([_Scheduled(0.5, 3, None), _Scheduled(0.5, 8, None),
                   _Scheduled(0.25, 4, None)])
    assert len(sched) == 5
    assert [(e.time, e.seq) for e in _drain(sched)] == [
        (0.25, 4), (0.5, 3), (0.5, 7), (0.5, 8), (0.5, 9)]


def test_an_until_split_leaves_the_next_instant_pending():
    sched = InstantHeap()
    a = _Scheduled(10.25, 0, None)
    b = _Scheduled(10.75, 1, None)
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
    c = _Scheduled(5.5, 2, None)
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
