"""Overload soaks: the E23 knee crossing across seeds, at reduced length.

Marked ``overload`` so CI can select (``-m overload``) or deselect
(``-m "not overload"``) the soak explicitly; like the other soaks it
also runs in the default suite because every run is deterministic — a
failure is a reproducible counterexample, not flake.  Each soak
replays the exact E23 stage schedule — same arrival rates, same finite
capacity, so the same knee physics — with stage *durations* scaled
down 4x (scaling rates would scale the overload away).
"""

import pytest

from repro.bench.exp_overload import run_overload

pytestmark = pytest.mark.overload

#: Quarter-length stages: ~4k arrivals per arm, the knee still crossed.
SOAK_SCALE = 0.25


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_overload_soak_protection_holds(seed):
    result = run_overload(seed=seed, duration_scale=SOAK_SCALE)
    print()
    print(result)
    m = result.metrics

    # Protected arm: no post-knee decline, bounded p95 for successes,
    # and the machinery demonstrably engaged.
    assert m["protected.goodput_final"] >= 0.8 * m["protected.goodput_peak"], m
    assert m["protected.p95_ok_final_s"] <= 1.0, m
    assert m["protected.shed"] > 0
    assert m["protected.brownout_served"] > 0
    assert m["protected.audit_violations"] == 0

    # Ablation arm: collapse, visible as falling goodput or as
    # successful-session latency blowing past the knee (at short soak
    # lengths the backlog shows up in latency before throughput).
    collapsed = (m["ablation.goodput_final"] <= 0.5 * m["ablation.goodput_peak"]
                 or m["ablation.p95_ok_final_s"] >= 2.0)
    assert collapsed, m
    assert m["ablation.shed"] == 0

    # More sessions fail without protection than with it.
    protected_failures = sum(r["failures"] for r in result.rows
                             if r["arm"] == "protected"
                             and r["stage"] != "total")
    ablation_failures = sum(r["failures"] for r in result.rows
                            if r["arm"] == "ablation"
                            and r["stage"] != "total")
    assert ablation_failures > protected_failures, (
        protected_failures, ablation_failures)

    # Crash leg: overload + primary crash + recovery leaks nothing.
    assert m["crash.invariant_leaks"] == 0, m
    assert m["crash.conformant"] == 1, m
    assert m["crash.shed"] > 0


def test_overload_soak_is_deterministic():
    """Same seed, same schedule — bit-identical verdict metrics."""
    first = run_overload(seed=0, duration_scale=SOAK_SCALE)
    second = run_overload(seed=0, duration_scale=SOAK_SCALE)
    assert first.metrics == second.metrics
