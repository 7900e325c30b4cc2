"""E6 — the cost of strong semantics: lock hold time and blocked writers.

"Iterating over a large, geographically dispersed set of objects is
time consuming, especially if a human is responsible for flow control.
The use of mobile (and possibly) disconnected computers may extend the
period a lock is held indefinitely."

A per-run-immutable reader holds the collection read lock for its whole
run; we sweep the consumer's think time (the human) and measure how
long a writer arriving mid-run waits.  The disconnection case caps at
the observation horizon with no lease, and at the lease duration with
one — the standard mitigation, as an ablation.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..sim.events import Sleep
from ..wan.workload import ScenarioSpec, build_scenario
from ..weaksets import PerRunImmutableSet, StrongSet, install_lock_services
from .report import ExperimentResult

__all__ = ["run_lock_cost", "run_disconnection"]


def _reader_writer_run(think: float, seed: int = 0, members: int = 8,
                       lease: Optional[float] = None,
                       disconnect: bool = False,
                       horizon: float = 120.0):
    spec = ScenarioSpec(n_clusters=3, cluster_size=2, n_members=members)
    scenario = build_scenario(spec, seed=seed)
    install_lock_services(scenario.world, spec.coll_id, lease=lease)
    reader = PerRunImmutableSet(scenario.world, scenario.client,
                                spec.coll_id, record=False)
    writer = StrongSet(scenario.world, "n2.0", spec.coll_id, record=False)
    iterator = reader.elements()
    timings = {}

    def read_side():
        yield from iterator.invoke()            # lock acquired here
        timings["lock_acquired"] = scenario.kernel.now
        if disconnect:
            scenario.net.isolate(scenario.client)
            yield Sleep(horizon * 2)            # never comes back in time
            return
        while True:
            yield Sleep(think)
            outcome = yield from iterator.invoke()
            if not outcome.suspends:
                break
        timings["lock_released"] = scenario.kernel.now

    def write_side():
        yield Sleep(0.2)                         # arrives mid-run
        t0 = scenario.kernel.now
        yield from writer.add("intruder", value="X")
        timings["write_done"] = scenario.kernel.now
        timings["writer_waited"] = scenario.kernel.now - t0

    scenario.kernel.spawn(read_side(), daemon=True)
    scenario.kernel.spawn(write_side(), daemon=True)
    scenario.kernel.run(until=horizon)
    return timings


def run_lock_cost(think_times: Iterable[float] = (0.0, 0.5, 2.0),
                  seed: int = 0) -> ExperimentResult:
    """E6: writer wait time grows with the reader's think time."""
    result = ExperimentResult(
        "E6", "Writer blocking under per-run read locks (§3.1)",
        columns=["consumer_think_time", "lock_hold_time", "writer_waited"],
        notes="lock hold time ~ think_time x members; the writer eats it all",
    )
    for think in think_times:
        timings = _reader_writer_run(think, seed=seed)
        hold = timings.get("lock_released", float("nan")) - timings["lock_acquired"]
        result.add(
            consumer_think_time=think,
            lock_hold_time=hold,
            writer_waited=timings.get("writer_waited", float("nan")),
        )
    return result


def run_disconnection(horizon: float = 60.0, seed: int = 0) -> ExperimentResult:
    """E6b: a disconnected reader blocks writers until the lease (if any)."""
    result = ExperimentResult(
        "E6b", "Disconnected reader holding the read lock",
        columns=["lease", "writer_waited", "writer_completed"],
        notes="no lease: blocked past the whole observation horizon "
              "('indefinitely'); a lease bounds the damage",
    )
    for lease in (None, 5.0):
        timings = _reader_writer_run(
            0.5, seed=seed, lease=lease, disconnect=True, horizon=horizon)
        waited = timings.get("writer_waited")
        result.add(
            lease="none" if lease is None else lease,
            writer_waited=(waited if waited is not None else float("nan")),
            writer_completed="write_done" in timings,
        )
    return result
