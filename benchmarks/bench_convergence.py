"""E14 — re-run-until-agreement (§3.2) vs mutation rate."""

from repro.bench import run_convergence


def test_e14_convergence():
    result = run_convergence()
    print()
    print(result)
    rows = sorted(result.rows, key=lambda r: r["mutation_rate"])

    quiet = rows[0]
    busiest = rows[-1]

    # quiescent sets stabilize every time, in exactly two rounds
    assert quiet["mutation_rate"] == 0.0
    assert quiet["stable_rate"] == 1.0
    assert quiet["mean_rounds_when_stable"] == 2.0
    assert quiet["mean_final_discrepancy"] == 0.0

    # stability degrades monotonically-ish with churn, and at the
    # highest rate most runs never agree within the budget
    stable_rates = [r["stable_rate"] for r in rows]
    assert stable_rates[0] >= stable_rates[-1]
    assert busiest["stable_rate"] <= 0.5
    assert busiest["mean_final_discrepancy"] > 0
