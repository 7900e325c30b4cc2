"""E23 — overload protection: the saturation knee, with and without.

The paper's environment is open-loop: "thousands of workstations"
offer load regardless of what the service can absorb.  E23 rams a
population arrival ramp straight through the primary's saturation
knee twice, on identical worlds with identical finite capacity
(``concurrency`` workers x ``service_time`` per request):

* **protected** — bounded admission queue with the priority
  discipline, brownout membership reads, and a client stack carrying
  a retry budget plus the AIMD adaptive-concurrency limiter.  Excess
  load is shed early with ``retry_after`` hints; goodput plateaus at
  capacity and the p95 of *successful* sessions stays bounded.
* **ablation** — the same workers behind an *unbounded* FIFO queue
  and a client stack that retries without a budget: the textbook
  congestion collapse.  Queueing delay blows through the RPC timeout,
  servers burn worker-seconds on requests whose callers already gave
  up, retries amplify the offered load, and late-stage goodput falls
  off a cliff.

A third leg crashes the primary mid-overload under a writer-heavy
mix and proves robustness is not bought with correctness: after
recovery the world passes every cross-component invariant and a
recorded Figure-6 iteration is conformant — shed, queued, and
crash-interrupted writes never leak.

All three legs are seed-deterministic simulations; goodput and p95
columns are virtual-time quantities, so the gates travel to any
machine.
"""

from __future__ import annotations

from typing import Generator

from ..net.executor import ExecutorPolicy
from ..net.failures import FaultSchedule
from ..net.resilience import (
    AIMDPolicy,
    AdaptiveLimiter,
    ResilientClient,
    RetryBudgetPolicy,
)
from ..sim.rng import Stream
from ..store.repository import Repository
from ..wan.population import Behavior, PopulationEngine, PopulationSpec, Stage
from ..wan.workload import Scenario, ScenarioSpec, build_scenario
from ..weaksets import make_weak_set
from .harness import heal_and_settle
from .report import ExperimentResult

__all__ = ["run_overload", "overload_scenario_spec", "overload_stages",
           "overload_behaviors", "CONCURRENCY", "SERVICE_TIME"]

#: The finite capacity both arms share: 4 workers x 10 ms per request
#: puts the primary's membership-read knee at ~400 sessions/s.
CONCURRENCY = 4
SERVICE_TIME = 0.010

#: Admission queue depth for the protected arm (the ablation's is
#: unbounded — that *is* the ablation).
QUEUE_LIMIT = 16


def overload_scenario_spec(protected: bool) -> ScenarioSpec:
    """The E23 world: one capacity, two admission disciplines."""
    if protected:
        executor = ExecutorPolicy(concurrency=CONCURRENCY,
                                  queue_limit=QUEUE_LIMIT,
                                  discipline="priority", brownout=True)
    else:
        # Finite workers, infinite queue: the pre-admission-control
        # server.  Nothing is ever shed; everything eventually times out.
        executor = ExecutorPolicy(concurrency=CONCURRENCY, queue_limit=None)
    return ScenarioSpec(service_time=SERVICE_TIME, executor=executor)


def overload_stages(duration_scale: float = 1.0) -> tuple[Stage, ...]:
    """The ramp: below the knee, at it, past it, far past it.

    ``duration_scale`` shrinks stage *durations* (fewer arrivals for
    tests and soaks) while leaving the rates — and therefore the knee
    physics — untouched.  Scaling rates instead would scale the
    overload away.
    """
    d = 8.0 * duration_scale
    return (
        Stage(duration=d, arrival_rate=160.0, name="below"),
        Stage(duration=d, arrival_rate=400.0, name="knee"),
        Stage(duration=d, arrival_rate=800.0, name="saturate"),
        Stage(duration=d, arrival_rate=1400.0, name="overload"),
    )


def overload_behaviors(scenario: Scenario, repo: Repository,
                       reader_weight: float = 8.0,
                       writer_weight: float = 1.0) -> tuple[Behavior, ...]:
    """Reader/writer mix running against one *shared* repository.

    Sharing the repository is the point: the retry budget and the AIMD
    limiter are per-client-stack state, and the population models many
    sessions behind one stub.  Readers read membership and fetch one
    member; writers add a fresh member and remove it (stationary size).
    """
    coll = scenario.coll_id
    counter = iter(range(1, 1 << 30))

    def reader(sc: Scenario, stream: Stream) -> Generator:
        view = yield from repo.read_membership(coll)
        members = sorted(view.members, key=lambda e: e.name)
        if members:
            target = members[stream.randint(0, len(members) - 1)]
            yield from repo.fetch(target)

    def writer(sc: Scenario, stream: Stream) -> Generator:
        i = next(counter)
        element = yield from repo.add(coll, f"ovl-{i:07d}",
                                      value=f"ovl-payload-{i}")
        yield from repo.remove(coll, element)

    return (
        Behavior("reader", reader_weight, reader),
        Behavior("writer", writer_weight, writer),
    )


def _protected_repo(scenario: Scenario) -> Repository:
    """The full client stack: retries honoring retry_after, a token-
    bucket retry budget, and a shared AIMD window for the pipelines."""
    client = ResilientClient(scenario.net,
                             retry_budget=RetryBudgetPolicy(ratio=0.1,
                                                            burst=10.0))
    limiter = AdaptiveLimiter(AIMDPolicy(max_window=32),
                              metrics=scenario.kernel.obs.metrics)
    return Repository(scenario.world, scenario.client,
                      resilience=client, limiter=limiter)


def _ablation_repo(scenario: Scenario) -> Repository:
    """Retries without a budget: each timed-out attempt begets more."""
    return Repository(scenario.world, scenario.client,
                      resilience=ResilientClient(scenario.net))


def _overload_counters(scenario: Scenario) -> dict:
    metrics = scenario.kernel.obs.metrics
    return {name: int(metrics.value(f"overload.{name}"))
            for name in ("admitted", "shed", "brownout_served",
                         "retry_budget_exhausted")}


def _run_arm(arm: str, seed: int, duration_scale: float):
    scenario = build_scenario(overload_scenario_spec(arm == "protected"),
                              seed=seed)
    repo = (_protected_repo(scenario) if arm == "protected"
            else _ablation_repo(scenario))
    spec = PopulationSpec(
        behaviors=overload_behaviors(scenario, repo),
        stages=overload_stages(duration_scale),
        arrival="lognormal", lognormal_sigma=1.0,
        audit_fraction=0.001,
        # Long enough for a full timeout x retry chain to land as a
        # counted failure instead of lingering in flight.
        drain_grace=20.0,
    )
    engine = PopulationEngine(scenario, spec)
    stages = engine.run()
    return scenario, stages, _overload_counters(scenario)


def _run_crash_leg(seed: int, duration_scale: float):
    """Primary crash mid-overload, writer-heavy: the correctness leg."""
    sspec = overload_scenario_spec(True)
    scenario = build_scenario(sspec, seed=seed)
    kernel = scenario.kernel
    repo = _protected_repo(scenario)
    duration = 10.0 * duration_scale
    schedule = (FaultSchedule()
                .crash_at(duration * 0.3, sspec.primary)
                .recover_at(duration * 0.5, sspec.primary))
    kernel.spawn(schedule.run(scenario.net), name="fault-schedule",
                 daemon=True)
    spec = PopulationSpec(
        behaviors=overload_behaviors(scenario, repo,
                                     reader_weight=4.0, writer_weight=4.0),
        stages=(Stage(duration=duration, arrival_rate=500.0,
                      start_rate=500.0, name="crash-overload"),),
        arrival="lognormal", lognormal_sigma=1.0,
        drain_grace=20.0,
    )
    engine = PopulationEngine(scenario, spec)
    stages = engine.run()
    # Quiesce: stragglers, WAL replay, and a few scrub periods, so the
    # invariant check sees the repaired steady state.
    problems = heal_and_settle(scenario, bound=30.0, step=30.0)
    # Post-recovery conformance: a recorded Figure-6 iteration over the
    # survivor state must be conformant — shedding and the crash never
    # produce an observably-wrong weak set.
    ws = make_weak_set(scenario.world, scenario.client, scenario.coll_id,
                       semantics="dynamic", record=True)
    kernel.run_process(ws.elements().drain())
    return scenario, stages, _overload_counters(scenario), problems, ws.audit()


def run_overload(seed: int = 0, duration_scale: float = 1.0) -> ExperimentResult:
    """E23: protected vs unprotected saturation, plus the crash leg."""
    result = ExperimentResult(
        "E23",
        "Overload protection: identical capacity "
        f"({CONCURRENCY} workers x {SERVICE_TIME * 1000:.0f} ms), "
        f"bounded+priority+brownout vs unbounded queue, seed={seed}",
        columns=["arm", "stage", "target_rate", "arrivals", "completions",
                 "failures", "goodput", "p95_ok_s", "shed", "brownout"],
        notes="goodput = successful sessions per virtual second of "
              "stage; p95_ok over successful sessions only; shed and "
              "brownout are whole-arm admission-control totals; the "
              "crash arm's verdict rows gate invariant leaks and "
              "post-recovery fig6 conformance",
    )
    metrics = result.metrics
    for arm in ("protected", "ablation"):
        scenario, stages, counters = _run_arm(arm, seed, duration_scale)
        for r in stages:
            result.add(arm=arm, stage=r.name,
                       target_rate=round(r.target_rate, 1),
                       arrivals=r.arrivals, completions=r.completions,
                       failures=r.failures,
                       goodput=round(r.goodput, 1),
                       p95_ok_s=round(r.p95_ok_latency, 4),
                       shed="", brownout="")
        result.add(arm=arm, stage="total", target_rate="",
                   arrivals=sum(r.arrivals for r in stages),
                   completions=sum(r.completions for r in stages),
                   failures=sum(r.failures for r in stages),
                   goodput="", p95_ok_s="",
                   shed=counters["shed"],
                   brownout=counters["brownout_served"])
        peak = max(r.goodput for r in stages)
        final = stages[-1].goodput
        metrics[f"{arm}.goodput_peak"] = round(peak, 1)
        metrics[f"{arm}.goodput_final"] = round(final, 1)
        metrics[f"{arm}.p95_ok_final_s"] = round(stages[-1].p95_ok_latency, 4)
        metrics[f"{arm}.shed"] = counters["shed"]
        metrics[f"{arm}.brownout_served"] = counters["brownout_served"]
        metrics[f"{arm}.retry_budget_exhausted"] = (
            counters["retry_budget_exhausted"])
        metrics[f"{arm}.audits"] = int(
            scenario.kernel.obs.metrics.value("population.audits"))
        metrics[f"{arm}.audit_violations"] = sum(
            r.audit_violations for r in stages)
    _, crash_stages, crash_counters, problems, report = _run_crash_leg(
        seed, duration_scale)
    for r in crash_stages:
        result.add(arm="crash", stage=r.name,
                   target_rate=round(r.target_rate, 1),
                   arrivals=r.arrivals, completions=r.completions,
                   failures=r.failures, goodput=round(r.goodput, 1),
                   p95_ok_s=round(r.p95_ok_latency, 4),
                   shed=crash_counters["shed"],
                   brownout=crash_counters["brownout_served"])
    result.add(arm="crash", stage="verdict", target_rate="",
               arrivals="", completions="", failures=len(problems),
               goodput="", p95_ok_s="",
               shed="conformant" if report.conformant else "VIOLATION",
               brownout="")
    metrics["crash.invariant_leaks"] = len(problems)
    metrics["crash.conformant"] = int(report.conformant)
    metrics["crash.shed"] = crash_counters["shed"]
    if problems:  # pragma: no cover - the gate this experiment exists for
        result.notes += f" | INVARIANT LEAKS: {problems}"
    return result
