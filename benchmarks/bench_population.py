"""E22 — population-scale load.

The gate this file enforces: a 10⁵-client open-loop population finishes
its ramp with every per-stage SLO met and *zero* sampled
spec-conformance violations (each audit is a recorded Figure-6
iteration checked inline).
"""

from repro.bench import run_population


def test_e22_population_slo():
    result = run_population()
    print()
    print(result)

    total = next(r for r in result.rows if r["stage"] == "total")
    stages = [r for r in result.rows if r["stage"] != "total"]

    # 10⁵+ open-loop clients arrived, and the drain grace was enough:
    # every session completed (open-loop offered load never wedges).
    assert total["arrivals"] >= 100_000
    assert total["completions"] == total["arrivals"]

    # Every stage meets its SLOs; audited iterations never violate
    # the Figure-6 specification.
    for row in stages:
        assert row["slo_ok"], row
        assert row["audit_violations"] == 0, row
    metrics = result.metrics
    assert metrics["population.audits"] > 0
    assert metrics["population.audit_violations"] == 0
