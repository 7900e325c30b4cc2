"""Population-scale open-loop load engine.

The paper's environment is "thousands of workstations" scattered over
the wide area; earlier experiments drive one client carefully, this
module drives a *population*.  The model follows modern load tools
(locust scenarios, k6 arrival-rate executors):

* A :class:`Behavior` is a named client script with a weight; the mix
  of behaviours in flight follows the weights.
* A :class:`Stage` is a ramp step: hold/ramp the arrival rate for a
  duration, with per-stage SLOs (failure-rate ceiling, p95 latency
  bound) judged over the sessions that *arrived* during the stage.
* Arrivals are **open-loop**: inter-arrival gaps are drawn from a
  heavy-tailed lognormal process at the stage's current rate,
  independent of completions — slow responses do not throttle offered
  load, which is exactly what makes open-loop populations stress a
  service.

The kernel keeps no table of processes, so a finished session is
freed at once and a run's memory tracks the live population, not the
arrival count — 10⁵+ arrivals are routine.  A configurable fraction of
sessions is *audited*: the session runs a recording weak-set iteration
and the trace is checked against a figure specification on the spot
(``population.audit_violations`` stays at zero or the run is wrong).

Everything is observable through ``population.*`` metrics on the
scenario kernel's registry; :meth:`PopulationEngine.run` additionally
returns one :class:`StageResult` per stage with the SLO verdicts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Generator, Optional

from ..errors import FailureException, SimulationError, StoreError
from ..sim.events import Sleep
from ..sim.rng import Stream
from ..weaksets import make_weak_set
from .workload import Scenario

__all__ = ["Behavior", "Stage", "PopulationSpec", "StageResult",
           "PopulationEngine", "default_behaviors"]

#: Exceptions a session may die with that count as *failures* (the SLO
#: denominator) rather than bugs: unreachable hosts, timeouts, policy
#: rejections.  Anything else propagates — a population run must not
#: silently eat programming errors.
_SESSION_FAILURES = (FailureException, StoreError)

#: every stock session sorts the members it read: a key C can call
_BY_NAME = attrgetter("name")


@dataclass(frozen=True)
class Behavior:
    """A named client script plus its share of the traffic mix.

    ``session`` is called as ``session(scenario, stream)`` and must
    return a generator to run as the session body.  ``weight`` is
    relative (any positive scale); the engine normalises.
    """

    name: str
    weight: float
    session: Callable[[Scenario, Stream], Generator]


@dataclass(frozen=True)
class Stage:
    """One ramp step of the arrival schedule.

    The arrival rate ramps linearly from the previous stage's target
    (0 for the first stage unless ``start_rate`` says otherwise) to
    ``arrival_rate`` over ``duration`` seconds — set them equal for a
    constant-rate stage.  SLOs are judged over sessions that arrived
    during the stage: ``max_failure_rate`` bounds failed/completed,
    ``max_p95_latency`` bounds the 95th percentile session latency.
    """

    duration: float
    arrival_rate: float
    name: str = ""
    start_rate: Optional[float] = None      # None: previous stage's target
    max_failure_rate: float = 1.0           # 1.0 = no failure SLO
    max_p95_latency: float = math.inf       # inf = no latency SLO


@dataclass(frozen=True)
class PopulationSpec:
    """Dials for a population run (the load side of a scenario)."""

    behaviors: tuple[Behavior, ...]
    stages: tuple[Stage, ...]
    arrival: str = "lognormal"              # the one arrival process
    lognormal_sigma: float = 1.0            # tail weight of lognormal gaps
    audit_fraction: float = 0.0             # sessions running a recorded,
                                            # conformance-checked iteration
                                            # (a dynamic-set drain vs fig6)
    drain_grace: float = 10.0               # extra virtual seconds for
                                            # in-flight sessions to finish

    def __post_init__(self) -> None:
        if not self.behaviors:
            raise SimulationError("population needs at least one behavior")
        if not self.stages:
            raise SimulationError("population needs at least one stage")
        if any(b.weight <= 0 for b in self.behaviors):
            raise SimulationError("behavior weights must be positive")
        if self.arrival != "lognormal":
            raise SimulationError(
                f"unknown arrival process {self.arrival!r}; known: lognormal")

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.stages)


@dataclass
class StageResult:
    """Per-stage outcome: load offered, sessions finished, SLO verdict."""

    index: int
    name: str
    target_rate: float
    duration: float = 0.0
    arrivals: int = 0
    completions: int = 0
    failures: int = 0
    audit_violations: int = 0
    p95_latency: float = 0.0
    p95_ok_latency: float = 0.0
    violations: tuple[str, ...] = ()
    _latencies: list = field(default_factory=list, repr=False)
    _ok_latencies: list = field(default_factory=list, repr=False)

    @property
    def failure_rate(self) -> float:
        done = self.completions
        return (self.failures / done) if done else 0.0

    @property
    def goodput(self) -> float:
        """Successful sessions per second of stage wall-clock.

        *The* overload curve: offered load keeps climbing open-loop,
        but goodput is what the service actually delivers.  A protected
        server's goodput plateaus at capacity; a collapsing one's falls
        as work is wasted on doomed retries and timed-out completions.
        """
        if self.duration <= 0.0:
            return 0.0
        return (self.completions - self.failures) / self.duration

    @property
    def slo_ok(self) -> bool:
        return not self.violations


def default_behaviors(scenario: Scenario) -> tuple[Behavior, ...]:
    """The stock mix: mostly readers, some scanners, few writers.

    * ``reader`` (weight 8) — read membership nearest-first, fetch one
      member's value (cache-friendly, the common lookup).
    * ``scanner`` (weight 1) — full membership read plus a handful of
      fetches (the "ls -l" shape from the dynamic-sets workloads).
    * ``writer`` (weight 1) — add a fresh member, then remove it:
      exercises the write pipeline while keeping the collection's size
      stationary under any run length.
    """
    coll = scenario.coll_id
    counter = itertools.count(1)

    def reader(sc: Scenario, stream: Stream) -> Generator:
        repo = sc.repo()
        view = yield from repo.read_membership(coll)
        members = sorted(view.members, key=_BY_NAME)
        if members:
            target = members[stream.randint(0, len(members) - 1)]
            yield from repo.fetch(target, use_cache=True)

    def scanner(sc: Scenario, stream: Stream) -> Generator:
        repo = sc.repo()
        view = yield from repo.read_membership(coll)
        members = sorted(view.members, key=_BY_NAME)
        for target in members[:4]:
            yield from repo.fetch(target, use_cache=True)

    def writer(sc: Scenario, stream: Stream) -> Generator:
        repo = sc.repo()
        i = next(counter)
        element = yield from repo.add(coll, f"pop-{i:07d}",
                                      value=f"pop-payload-{i}")
        yield from repo.remove(coll, element)

    return (
        Behavior("reader", 8.0, reader),
        Behavior("scanner", 1.0, scanner),
        Behavior("writer", 1.0, writer),
    )


class PopulationEngine:
    """Drives an open-loop population against a built scenario.

    One engine owns one run: construct, :meth:`run`, read the stage
    results (and the ``population.*`` metrics on the scenario kernel).
    """

    def __init__(self, scenario: Scenario, spec: PopulationSpec):
        self.scenario = scenario
        self.spec = spec
        self.kernel = scenario.kernel
        self.stream = self.kernel.stream("population.arrivals")
        self.stage_results: list[StageResult] = [
            StageResult(index=i, name=s.name or f"stage-{i}",
                        target_rate=s.arrival_rate, duration=s.duration)
            for i, s in enumerate(spec.stages)
        ]
        self.active = 0
        self.peak_active = 0
        # Weighted-choice table (few behaviours: linear scan is fine).
        self._cum_weights: list[float] = list(
            itertools.accumulate(b.weight for b in spec.behaviors))
        # population.* metrics: resolved once, per-behaviour keyed.
        metrics = self.kernel.obs.metrics
        self._m_arrivals = metrics.counter("population.arrivals")
        self._m_completions = metrics.counter("population.completions")
        self._m_failures = metrics.counter("population.failures")
        self._m_active = metrics.gauge("population.active")
        self._m_peak = metrics.gauge("population.peak_active")
        self._m_audits = metrics.counter("population.audits")
        self._m_violations = metrics.counter("population.audit_violations")
        self._b_sessions = {b.name: metrics.counter(
            f"population.sessions.{b.name}") for b in spec.behaviors}
        self._b_failures = {b.name: metrics.counter(
            f"population.failures.{b.name}") for b in spec.behaviors}
        self._b_latency = {b.name: metrics.histogram(
            f"population.latency.{b.name}") for b in spec.behaviors}

    # -- driving -------------------------------------------------------
    def run(self) -> list[StageResult]:
        """Run the whole arrival schedule; return per-stage results.

        Advances the scenario kernel until every stage has elapsed plus
        ``drain_grace`` for stragglers, then freezes SLO verdicts.
        Sessions still in flight after the grace window count as
        arrived-but-not-completed (they are neither failures nor
        completions — the SLO denominator is completed sessions).
        """
        start = self.kernel.now
        self.kernel.spawn(self._driver(), name="population-driver",
                          daemon=True)
        self.kernel.run(until=start + self.spec.total_duration
                        + self.spec.drain_grace)
        return self._finalize()

    def _driver(self) -> Generator:
        """The arrival process: one daemon emitting the whole schedule."""
        spec = self.spec
        clock = self.kernel.clock
        prev_target = 0.0
        for index, stage in enumerate(spec.stages):
            start_rate = (stage.start_rate if stage.start_rate is not None
                          else prev_target)
            stage_start = clock.now
            stage_end = stage_start + stage.duration
            while True:
                now = clock.now
                if now >= stage_end:
                    break
                # Linear ramp: interpolate the instantaneous rate, then
                # draw one heavy-tailed gap with that mean.
                frac = (now - stage_start) / stage.duration
                rate = start_rate + (stage.arrival_rate - start_rate) * frac
                if rate <= 0.0:
                    # Ramp still at zero: idle forward a slice.
                    yield Sleep(stage.duration * 0.05)
                    continue
                yield Sleep(self.stream.lognormal(1.0 / rate,
                                                  spec.lognormal_sigma))
                if clock.now >= stage_end:
                    break
                self._arrive(index)
            prev_target = stage.arrival_rate

    def _arrive(self, stage_index: int) -> None:
        stream = self.stream
        target = stream.random() * self._cum_weights[-1]
        for i, acc in enumerate(self._cum_weights):
            if target < acc:
                behavior = self.spec.behaviors[i]
                break
        else:  # pragma: no cover - float edge
            behavior = self.spec.behaviors[-1]
        audited = (self.spec.audit_fraction > 0.0
                   and stream.bernoulli(self.spec.audit_fraction))
        self._m_arrivals.value += 1
        self.stage_results[stage_index].arrivals += 1
        self.kernel.spawn(self._session(behavior, stage_index, audited),
                          name="")

    # -- sessions ------------------------------------------------------
    def _session(self, behavior: Behavior, stage_index: int,
                 audited: bool) -> Generator:
        clock = self.kernel.clock
        result = self.stage_results[stage_index]
        self.active += 1
        self._m_active.value = self.active
        if self.active > self.peak_active:
            self.peak_active = self.active
            self._m_peak.value = self.active
        started = clock.now
        failed = False
        try:
            if audited:
                yield from self._audited_iteration(result)
            else:
                yield from behavior.session(self.scenario, self.stream)
        except _SESSION_FAILURES:
            failed = True
        finally:
            self.active -= 1
            self._m_active.value = self.active
        elapsed = clock.now - started
        self._m_completions.value += 1
        self._b_sessions[behavior.name].value += 1
        self._b_latency[behavior.name].observe(elapsed)
        result.completions += 1
        result._latencies.append(elapsed)
        if failed:
            self._m_failures.value += 1
            self._b_failures[behavior.name].value += 1
            result.failures += 1
        else:
            result._ok_latencies.append(elapsed)

    def _audited_iteration(self, result: StageResult) -> Generator:
        """A recorded full iteration, conformance-checked on the spot."""
        ws = make_weak_set(self.scenario.world, self.scenario.client,
                           self.scenario.coll_id,
                           semantics="dynamic", record=True)
        yield from ws.elements().drain()
        self._m_audits.inc()
        if not ws.audit().conformant:
            self._m_violations.inc()
            result.audit_violations += 1

    # -- verdicts ------------------------------------------------------
    def _finalize(self) -> list[StageResult]:
        for stage, result in zip(self.spec.stages, self.stage_results):
            latencies = sorted(result._latencies)
            if latencies:
                rank = max(0, math.ceil(0.95 * len(latencies)) - 1)
                result.p95_latency = latencies[rank]
            ok_latencies = sorted(result._ok_latencies)
            if ok_latencies:
                rank = max(0, math.ceil(0.95 * len(ok_latencies)) - 1)
                result.p95_ok_latency = ok_latencies[rank]
            violations = []
            if result.failure_rate > stage.max_failure_rate:
                violations.append(
                    f"failure rate {result.failure_rate:.4f} > "
                    f"{stage.max_failure_rate:.4f}")
            if result.p95_latency > stage.max_p95_latency:
                violations.append(
                    f"p95 latency {result.p95_latency:.4f}s > "
                    f"{stage.max_p95_latency:.4f}s")
            if result.audit_violations:
                violations.append(
                    f"{result.audit_violations} conformance violation(s)")
            result.violations = tuple(violations)
        return self.stage_results

    def __repr__(self) -> str:
        return (f"PopulationEngine(behaviors={len(self.spec.behaviors)}, "
                f"stages={len(self.spec.stages)}, active={self.active})")
