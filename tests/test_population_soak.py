"""Population soaks: the E22 schedule across seeds, at reduced rate.

Marked ``population`` so CI can select (``-m population``) or deselect
(``-m "not population"``) the soak explicitly; like the chaos and
disconnected soaks it also runs in the default suite, because every run
is deterministic — a failure is a reproducible counterexample, not
flake.  Each soak replays the exact E22 stage schedule — same durations, ramps, SLOs, audit sampling — with the
arrival *rates* scaled down 20x, so the full schedule logic (linear
ramp, heavy-tailed gaps, drain grace, per-stage verdicts) is exercised
per seed in a few seconds instead of a minute.
"""

import pytest

from repro.bench.exp_population import population_spec, run_population
from repro.wan import PopulationEngine
from repro.wan.workload import ScenarioSpec, build_scenario

pytestmark = pytest.mark.population

#: 1/20th of the E22 rate: ~5.3k arrivals per soak, all stages active.
SOAK_SCALE = 0.05


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_population_soak_slo_and_conformance(seed):
    result = run_population(seed=seed, scale=SOAK_SCALE)
    print()
    print(result)

    total = next(r for r in result.rows if r["stage"] == "total")
    stages = [r for r in result.rows if r["stage"] != "total"]
    assert total["arrivals"] > 3_000
    assert total["completions"] == total["arrivals"]
    for row in stages:
        assert row["slo_ok"], row
        assert row["audit_violations"] == 0, row

    metrics = result.metrics
    assert metrics["population.audit_violations"] == 0
    assert metrics["population.failures"] <= 0.05 * metrics[
        "population.completions"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_population_soak_heavy_audit_stays_conformant(seed):
    """Audit every 20th session: hundreds of inline fig6 checks."""
    scenario = build_scenario(ScenarioSpec(), seed=seed)
    spec = population_spec(scenario, scale=SOAK_SCALE, audit_fraction=0.05)
    engine = PopulationEngine(scenario, spec)
    results = engine.run()
    metrics = scenario.kernel.obs.metrics
    assert metrics.value("population.audits") > 100
    assert metrics.value("population.audit_violations") == 0
    assert all(r.audit_violations == 0 for r in results)
