"""Unit tests for the population-scale load engine (repro.wan.population).

These run *small* populations (hundreds of arrivals, seconds of virtual
time) so the schedule logic — ramps, weighted mixes, SLO verdicts,
audits, failure accounting — is exercised quickly; the 10⁵-client gate
lives in benchmarks/bench_population.py and the cross-seed soak in
tests/test_population_soak.py.
"""

import math

import pytest

from repro.errors import SimulationError, TimeoutFailure
from repro.sim import Kernel, Sleep
from repro.wan import (
    Behavior,
    PopulationEngine,
    PopulationSpec,
    Stage,
    default_behaviors,
)
from repro.wan.workload import ScenarioSpec, build_scenario


def small_scenario(seed=7):
    return build_scenario(
        ScenarioSpec(n_clusters=2, cluster_size=2, n_members=8), seed=seed)


def napper(duration=0.01):
    """A synthetic behaviour: sleep, touch nothing."""

    def session(scenario, stream):
        yield Sleep(duration)

    return session


def run_engine(scenario, spec):
    engine = PopulationEngine(scenario, spec)
    return engine, engine.run()


# -- spec validation ---------------------------------------------------

def _stage():
    return Stage(duration=1.0, arrival_rate=10.0)


def _behavior():
    return Behavior("nap", 1.0, napper())


@pytest.mark.parametrize("kwargs", [
    dict(behaviors=(), stages=(_stage(),)),
    dict(behaviors=(_behavior(),), stages=()),
    dict(behaviors=(Behavior("bad", 0.0, napper()),), stages=(_stage(),)),
    dict(behaviors=(_behavior(),), stages=(_stage(),), arrival="uniform"),
    dict(behaviors=(_behavior(),), stages=(_stage(),), arrival="pareto"),
])
def test_spec_validation_rejects_bad_dials(kwargs):
    with pytest.raises(SimulationError):
        PopulationSpec(**kwargs)


def test_total_duration_sums_stages():
    spec = PopulationSpec(
        behaviors=(_behavior(),),
        stages=(Stage(duration=2.0, arrival_rate=5.0),
                Stage(duration=3.0, arrival_rate=1.0)))
    assert spec.total_duration == 5.0


# -- the lognormal gap helper -----------------------------------------

def test_stream_lognormal_mean_and_degenerate_cases():
    stream = Kernel(seed=11).stream("gaps")
    draws = [stream.lognormal(0.5, sigma=1.0) for _ in range(4000)]
    assert all(d > 0 for d in draws)
    # Parameterised by the arithmetic mean, not exp(mu).
    assert sum(draws) / len(draws) == pytest.approx(0.5, rel=0.1)
    assert stream.lognormal(0.0) == 0.0
    assert stream.lognormal(-1.0) == 0.0
    # sigma=0 degenerates to the constant mean.
    assert stream.lognormal(0.25, sigma=0.0) == pytest.approx(0.25)


# -- arrival accounting ------------------------------------------------

@pytest.mark.parametrize("arrival", ["lognormal"])
def test_constant_stage_offers_roughly_rate_times_duration(arrival):
    scenario = small_scenario()
    spec = PopulationSpec(
        behaviors=(_behavior(),),
        stages=(Stage(duration=20.0, arrival_rate=25.0, start_rate=25.0,
                      name="flat"),),
        arrival=arrival,
    )
    engine, results = run_engine(scenario, spec)
    (flat,) = results
    # Open loop at a constant 25/s for 20s: ~500 arrivals.  The heavy
    # tail widens the spread, hence the loose band.
    assert 300 <= flat.arrivals <= 700
    assert flat.completions == flat.arrivals
    assert flat.failures == 0
    assert flat.slo_ok
    metrics = scenario.kernel.obs.metrics
    assert metrics.value("population.arrivals") == flat.arrivals
    assert metrics.value("population.completions") == flat.completions
    assert metrics.value("population.peak_active") == engine.peak_active > 0


def test_ramp_offers_fewer_arrivals_than_flat_and_attributes_stages():
    scenario = small_scenario()
    spec = PopulationSpec(
        behaviors=(_behavior(),),
        stages=(
            Stage(duration=10.0, arrival_rate=40.0, name="ramp"),
            Stage(duration=10.0, arrival_rate=40.0, name="hold"),
        ),
    )
    _, results = run_engine(scenario, spec)
    ramp, hold = results
    # The ramp stage averages ~half the hold stage's rate (0 → 40 linear).
    assert 0 < ramp.arrivals < hold.arrivals
    assert ramp.arrivals == pytest.approx(hold.arrivals / 2, rel=0.5)
    # Sessions arriving in a stage are credited to it even if they
    # complete later; everything drains within the grace window.
    assert ramp.completions == ramp.arrivals
    assert hold.completions == hold.arrivals


def test_weighted_mix_follows_behavior_weights():
    scenario = small_scenario()
    spec = PopulationSpec(
        behaviors=(Behavior("common", 9.0, napper()),
                   Behavior("rare", 1.0, napper())),
        stages=(Stage(duration=20.0, arrival_rate=30.0, start_rate=30.0),),
    )
    _, results = run_engine(scenario, spec)
    metrics = scenario.kernel.obs.metrics
    common = metrics.value("population.sessions.common")
    rare = metrics.value("population.sessions.rare")
    assert common + rare == results[0].completions
    assert common / (common + rare) == pytest.approx(0.9, abs=0.06)


def test_engine_runs_are_deterministic_per_seed():
    def observe(seed):
        scenario = small_scenario(seed=seed)
        spec = PopulationSpec(
            behaviors=default_behaviors(scenario),
            stages=(Stage(duration=5.0, arrival_rate=20.0),),
        )
        _, results = run_engine(scenario, spec)
        r = results[0]
        return (r.arrivals, r.completions, r.failures,
                round(r.p95_latency, 9), scenario.kernel.now)

    assert observe(3) == observe(3)
    assert observe(3) != observe(4)


# -- SLO verdicts ------------------------------------------------------

def test_latency_slo_violation_is_detected():
    scenario = small_scenario()
    spec = PopulationSpec(
        behaviors=(Behavior("slow", 1.0, napper(duration=0.5)),),
        stages=(Stage(duration=5.0, arrival_rate=10.0, start_rate=10.0,
                      name="strict", max_p95_latency=0.1),),
    )
    _, results = run_engine(scenario, spec)
    (strict,) = results
    assert strict.p95_latency >= 0.5
    assert not strict.slo_ok
    assert any("p95 latency" in v for v in strict.violations)


def test_failure_slo_violation_is_detected_and_counted():
    def flaky(scenario, stream):
        yield Sleep(0.01)
        if stream.bernoulli(0.5):
            raise TimeoutFailure("session timed out")

    scenario = small_scenario()
    spec = PopulationSpec(
        behaviors=(Behavior("flaky", 1.0, flaky),),
        stages=(Stage(duration=10.0, arrival_rate=20.0, start_rate=20.0,
                      name="strict", max_failure_rate=0.05),),
    )
    _, results = run_engine(scenario, spec)
    (strict,) = results
    # Failures complete (they are SLO events, not lost sessions).
    assert strict.completions == strict.arrivals
    assert strict.failures > 0
    assert strict.failure_rate == pytest.approx(0.5, abs=0.15)
    assert not strict.slo_ok
    assert any("failure rate" in v for v in strict.violations)
    metrics = scenario.kernel.obs.metrics
    assert metrics.value("population.failures") == strict.failures
    assert metrics.value("population.failures.flaky") == strict.failures


def test_unbounded_slos_never_violate():
    scenario = small_scenario()
    spec = PopulationSpec(
        behaviors=(Behavior("slow", 1.0, napper(duration=1.0)),),
        stages=(Stage(duration=3.0, arrival_rate=5.0, start_rate=5.0),),
    )
    _, results = run_engine(scenario, spec)
    assert results[0].slo_ok
    assert results[0].violations == ()


# -- audits ------------------------------------------------------------

def test_audited_sessions_check_conformance_inline():
    scenario = small_scenario()
    spec = PopulationSpec(
        behaviors=default_behaviors(scenario),
        stages=(Stage(duration=5.0, arrival_rate=20.0, start_rate=20.0),),
        audit_fraction=1.0,            # every session is an audit
    )
    _, results = run_engine(scenario, spec)
    metrics = scenario.kernel.obs.metrics
    audits = metrics.value("population.audits")
    assert audits == results[0].completions > 0
    assert metrics.value("population.audit_violations") == 0
    assert results[0].audit_violations == 0
    assert results[0].slo_ok


def test_default_behavior_mix_runs_clean_against_real_scenario():
    scenario = small_scenario()
    spec = PopulationSpec(
        behaviors=default_behaviors(scenario),
        stages=(Stage(duration=10.0, arrival_rate=25.0, name="mixed",
                      max_failure_rate=0.1, max_p95_latency=2.0),),
        audit_fraction=0.02,
    )
    _, results = run_engine(scenario, spec)
    (mixed,) = results
    assert mixed.completions == mixed.arrivals > 0
    assert mixed.slo_ok, mixed.violations
    metrics = scenario.kernel.obs.metrics
    # All three stock behaviours actually ran.
    for name in ("reader", "scanner", "writer"):
        assert metrics.value(f"population.sessions.{name}") > 0


def test_p95_is_ceil_rank_of_sorted_latencies():
    # 20 sessions with known distinct latencies: p95 is the 19th value.
    scenario = small_scenario()
    durations = iter([0.01 * (i + 1) for i in range(200)])

    def stepped(sc, stream):
        yield Sleep(next(durations))

    spec = PopulationSpec(
        behaviors=(Behavior("stepped", 1.0, stepped),),
        stages=(Stage(duration=2.0, arrival_rate=10.0, start_rate=10.0),),
        drain_grace=30.0,
    )
    _, results = run_engine(scenario, spec)
    (stage,) = results
    lat = sorted(stage._latencies)
    rank = max(0, math.ceil(0.95 * len(lat)) - 1)
    assert stage.p95_latency == lat[rank]
