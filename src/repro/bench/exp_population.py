"""E22 — population-scale load.

The paper's environment is "thousands of workstations" querying shared
collections.  E22 makes that literal: an open-loop, heavy-tailed
arrival process (the :mod:`repro.wan.population` engine) drives 10⁵
simulated client sessions through ramp/steady/cool-down stages against
one wide-area world, with per-stage SLOs and sampled spec-conformance
audits.  The gate: every stage meets its SLO and not one audited
iteration violates Figure 6.
"""

from __future__ import annotations

from ..wan.population import (
    PopulationEngine,
    PopulationSpec,
    Stage,
    default_behaviors,
)
from ..wan.workload import ScenarioSpec, build_scenario
from .report import ExperimentResult

__all__ = ["run_population", "population_spec"]


def population_spec(scenario, scale: float = 1.0,
                    audit_fraction: float = 0.0005) -> PopulationSpec:
    """The E22 schedule: ramp to 1600 arrivals/s, hold, cool down.

    At ``scale=1.0`` the expected arrival count is ~1.06 × 10⁵ clients
    (16k ramp + 80k steady + 10k cool-down).  ``scale`` multiplies the
    stage *rates* — durations and SLOs stay fixed, so a scaled-down run
    (tests, soaks) exercises identical schedule logic.
    """
    rate = 1600.0 * scale
    return PopulationSpec(
        behaviors=default_behaviors(scenario),
        stages=(
            Stage(duration=20.0, arrival_rate=rate, name="ramp-up",
                  max_failure_rate=0.05, max_p95_latency=2.0),
            Stage(duration=50.0, arrival_rate=rate, name="steady",
                  max_failure_rate=0.02, max_p95_latency=1.0),
            Stage(duration=10.0, arrival_rate=rate / 4.0, name="cool-down",
                  max_failure_rate=0.05, max_p95_latency=2.0),
        ),
        arrival="lognormal",
        lognormal_sigma=1.0,
        audit_fraction=audit_fraction,
    )


def run_population(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    """E22: the population ramp, one row per stage plus a totals row."""
    scenario = build_scenario(ScenarioSpec(), seed=seed)
    spec = population_spec(scenario, scale=scale)
    engine = PopulationEngine(scenario, spec)
    stages = engine.run()
    metrics = scenario.kernel.obs.metrics
    result = ExperimentResult(
        "E22",
        f"Population load: open-loop {spec.arrival} arrivals, "
        f"{len(spec.behaviors)}-behaviour mix, seed={seed}",
        columns=["stage", "target_rate", "arrivals", "completions",
                 "failure_rate", "p95_s", "audit_violations", "slo_ok"],
        notes="open-loop: offered load is independent of completions; "
              "SLOs judged over sessions arriving in the stage; audits "
              "run recorded fig6 iterations inline",
    )
    for r in stages:
        result.add(stage=r.name, target_rate=round(r.target_rate, 1),
                   arrivals=r.arrivals, completions=r.completions,
                   failure_rate=round(r.failure_rate, 4),
                   p95_s=round(r.p95_latency, 4),
                   audit_violations=r.audit_violations,
                   slo_ok=r.slo_ok)
    result.add(stage="total", target_rate="",
               arrivals=sum(r.arrivals for r in stages),
               completions=sum(r.completions for r in stages),
               failure_rate=round(
                   sum(r.failures for r in stages)
                   / max(1, sum(r.completions for r in stages)), 4),
               p95_s="",
               audit_violations=sum(r.audit_violations for r in stages),
               slo_ok=all(r.slo_ok for r in stages))
    # The population.* registry view: what the E22 gate and the soak read.
    result.metrics = {
        "population.arrivals": metrics.value("population.arrivals"),
        "population.completions": metrics.value("population.completions"),
        "population.failures": metrics.value("population.failures"),
        "population.peak_active": metrics.value("population.peak_active"),
        "population.audits": metrics.value("population.audits"),
        "population.audit_violations":
            metrics.value("population.audit_violations"),
        "kernel.events": metrics.value("kernel.events"),
    }
    return result
