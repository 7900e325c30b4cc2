"""E5 — consistency cost vs mutation rate, plus the cache ablation."""

from repro.bench import run_cache_ablation, run_staleness


def test_e5_staleness():
    result = run_staleness()
    print()
    print(result)
    rows = result.rows

    def row(rate, impl_prefix):
        return next(r for r in rows
                    if r["mutation_rate"] == rate and r["impl"].startswith(impl_prefix))

    rates = sorted({r["mutation_rate"] for r in rows})

    # the reference-object regime: no mutations, no inconsistency at all
    assert row(0.0, "fig4")["missed_adds_per_run"] == 0
    assert row(0.0, "fig4")["stale_yields_per_run"] == 0
    assert row(0.0, "fig6")["missed_adds_per_run"] == 0
    assert row(0.0, "fig6")["stale_yields_per_run"] == 0

    # fig4 misses additions, and misses more as the rate grows;
    # fig6's pre-state basis misses none
    top = max(rates)
    assert row(top, "fig4")["missed_adds_per_run"] > 0
    assert row(top, "fig4")["missed_adds_per_run"] >= row(0.5, "fig4")["missed_adds_per_run"]
    for rate in rates:
        assert row(rate, "fig6")["missed_adds_per_run"] == 0

    # both designs may yield members that get removed — the cost grows
    # with the mutation rate for both
    assert row(top, "fig4")["stale_yields_per_run"] > 0
    assert row(top, "fig6")["stale_yields_per_run"] > 0

    # fig6 yields more than the initial membership under heavy adds
    assert row(top, "fig6")["mean_yields"] > row(top, "fig4")["mean_yields"]


def test_e5a_cache_ablation():
    result = run_cache_ablation()
    print()
    print(result)
    rows = result.rows
    no_cache = next(r for r in rows if r["ttl"] == 0.0)
    cached = next(r for r in rows if r["ttl"] == 10.0)
    # the cache makes the repeated query far cheaper...
    assert cached["second_query_time"] < no_cache["second_query_time"] / 10
    # ...and stale: the removed member is still served
    assert cached["second_query_stale_yields"] > 0
    assert no_cache["second_query_stale_yields"] == 0
