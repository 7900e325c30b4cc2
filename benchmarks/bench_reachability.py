"""E9 — the reachability model (Figure 2) at small and larger scale."""

from repro.bench import run_reachability


def test_e9_reachability():
    result = run_reachability()
    print()
    print(result)
    rows = result.rows

    # the exact Figure 2 observations
    sigma = next(r for r in rows if r["scenario"].startswith("fig2 sigma ("))
    sigma_prime = next(r for r in rows if r["scenario"].startswith("fig2 sigma'"))
    assert sigma["reachable"] == 3 and sigma["exists"] == 3
    assert sigma_prime["reachable"] == 2 and sigma_prime["exists"] == 3

    # at scale: cutting k of n nodes removes exactly their members from
    # reachable(a) and never changes existence
    for r in rows:
        if not r["scenario"].startswith("random split"):
            continue
        n = r["members"]
        cut = n // 4
        assert r["exists"] == n
        assert r["reachable"] == n - cut
