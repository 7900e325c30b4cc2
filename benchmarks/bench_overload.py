"""E23 — overload protection: plateau vs congestion collapse.

The gates this file enforces, all on virtual-time quantities of a
seed-deterministic simulation (they travel to any runner):

* **protected arm** — goodput through the saturation knee is monotone
  non-collapsing, the heaviest stage's goodput stays at (or above) its
  peak, successful-session p95 stays bounded, and admission control
  actually engaged (sheds, brownouts, budget exhaustions all > 0).
* **ablation arm** — the same capacity behind an unbounded queue and
  budget-less retries collapses: the final stage's goodput falls to a
  fraction of both its own peak and the protected arm's final stage.
* **crash leg** — a primary crash mid-overload under a writer-heavy
  mix leaks zero cross-component invariants and the post-recovery
  recorded Figure-6 iteration is conformant.
"""

from repro.bench import run_overload

#: Protected final-stage goodput must stay within this fraction of the
#: arm's best stage (no post-knee decline).
MIN_PLATEAU_FRACTION = 0.9

#: The protected arm must actually deliver at least raw worker
#: capacity (4 workers / 10 ms = 400/s) in its heaviest stage —
#: brownout reads push it above, shedding must not drag it below.
MIN_PROTECTED_GOODPUT = 400.0

#: Bounded-latency gate for successful sessions under full overload.
MAX_PROTECTED_P95_S = 1.0

#: Collapse gates: the ablation's final stage vs its own peak, and vs
#: the protected arm's final stage.
MAX_COLLAPSE_VS_OWN_PEAK = 0.5
MAX_COLLAPSE_VS_PROTECTED = 0.3


def test_e23_overload_protection():
    result = run_overload()
    print()
    print(result)

    m = result.metrics
    stages = {arm: [r for r in result.rows
                    if r["arm"] == arm and r["stage"] not in ("total",
                                                              "verdict")]
              for arm in ("protected", "ablation", "crash")}

    # Open-loop arrivals all land (drain grace was enough) in both arms.
    for arm in ("protected", "ablation"):
        total = next(r for r in result.rows
                     if r["arm"] == arm and r["stage"] == "total")
        assert total["completions"] >= 0.99 * total["arrivals"], total

    # Protected: monotone non-collapsing goodput through the knee ...
    goodputs = [r["goodput"] for r in stages["protected"]]
    for earlier, later in zip(goodputs, goodputs[1:]):
        assert later >= 0.95 * earlier, goodputs
    # ... a final stage at/above the plateau and above raw capacity ...
    assert m["protected.goodput_final"] >= (
        MIN_PLATEAU_FRACTION * m["protected.goodput_peak"]), m
    assert m["protected.goodput_final"] >= MIN_PROTECTED_GOODPUT, m
    # ... with bounded p95 for the sessions that succeeded.
    assert m["protected.p95_ok_final_s"] <= MAX_PROTECTED_P95_S, m

    # Admission control engaged: sheds, brownout reads, budget stops.
    assert m["protected.shed"] > 0
    assert m["protected.brownout_served"] > 0
    assert m["protected.retry_budget_exhausted"] > 0
    # The ablation has no admission control to engage.
    assert m["ablation.shed"] == 0
    assert m["ablation.brownout_served"] == 0

    # Ablation: congestion collapse past the knee.
    assert m["ablation.goodput_final"] <= (
        MAX_COLLAPSE_VS_OWN_PEAK * m["ablation.goodput_peak"]), m
    assert m["ablation.goodput_final"] <= (
        MAX_COLLAPSE_VS_PROTECTED * m["protected.goodput_final"]), m

    # Conformance: audited iterations ran in the protected arm and
    # none violated Figure 6 — brownout reads are legal weak-set
    # behavior.  (The ablation is allowed to violate: overload-induced
    # omissions of reachable members are exactly the pathology.)
    assert m["protected.audits"] > 0
    assert m["protected.audit_violations"] == 0

    # Crash leg: overload + crash + recovery leaks nothing.
    assert m["crash.invariant_leaks"] == 0, m
    assert m["crash.conformant"] == 1, m
    assert m["crash.shed"] > 0
