"""E16 — resilient RPC (retries, hedging, breakers, failover) under crash faults."""

from repro.bench import run_resilience


def test_e16_resilience():
    result = run_resilience()
    print()
    print(result)
    rows = result.rows

    def row(rate, variant):
        return next(r for r in rows
                    if r["crash_rate"] == rate and r["variant"] == variant)

    rates = sorted({r["crash_rate"] for r in rows})

    # Safety first: recovery machinery may reorder or repeat work, but it
    # must never invent or resurrect elements — the weak guarantee holds
    # for every variant at every fault rate.
    assert all(r["spec_ok"] for r in rows)

    # Failure-free regime: everyone completes, and resilience adds no
    # recovery work (nothing to retry, fail over, or trip).
    for variant in ("no-retry", "retry+failover", "retry+hedge+breaker"):
        assert row(0.0, variant)["completion_rate"] == 1.0
    assert row(0.0, "retry+failover")["failovers"] == 0
    assert row(0.0, "retry+hedge+breaker")["breaker_trips"] == 0

    # The headline claim: at every nonzero crash rate, retry+failover
    # completes strictly more drains than the bare client over the same
    # seeded worlds.
    for rate in rates:
        if rate == 0.0:
            continue
        bare = row(rate, "no-retry")
        resilient = row(rate, "retry+failover")
        assert resilient["completion_rate"] > bare["completion_rate"]
        assert resilient["mean_coverage"] >= bare["mean_coverage"]
        # and the machinery demonstrably engaged
        assert resilient["retries"] > 0

    # The full stack actually exercises its extra machinery somewhere in
    # the sweep: hedges fire on heavy-tail links, breakers trip on
    # repeat offenders.
    full_rows = [r for r in rows if r["variant"] == "retry+hedge+breaker"]
    assert sum(r["hedges"] for r in full_rows) > 0
    assert sum(r["breaker_trips"] for r in full_rows if r["crash_rate"] > 0) > 0
