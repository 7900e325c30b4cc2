"""E2 — time-to-first-element benchmark (§1.1 advantage 1)."""

from repro.bench import run_time_to_first


def test_e2_time_to_first():
    result = run_time_to_first()
    print()
    print(result)
    rows = result.rows

    def row(members, impl_prefix):
        return next(r for r in rows
                    if r["members"] == members and r["impl"].startswith(impl_prefix))

    for members in {r["members"] for r in rows}:
        strong = row(members, "strong")
        for weak in ["fig4", "fig5", "fig6"]:
            weak_row = row(members, weak)
            # weak iterators stream: first element arrives at least 10x
            # earlier than the strong baseline's
            assert weak_row["time_to_first"] * 10 < strong["time_to_first"], (
                members, weak)
            # and everyone yields the full set in this failure-free world
            assert weak_row["yielded"] == members

    # the strong baseline's time-to-first grows with set size; the weak
    # iterators' stays flat
    strong_small = row(10, "strong")["time_to_first"]
    strong_large = row(160, "strong")["time_to_first"]
    assert strong_large > 8 * strong_small
    weak_small = row(10, "fig6")["time_to_first"]
    weak_large = row(160, "fig6")["time_to_first"]
    assert weak_large < 3 * weak_small


def test_e2a_early_exit():
    from repro.bench import run_early_exit

    result = run_early_exit()
    print()
    print(result)
    rows = result.rows

    def row(k, impl):
        return next(r for r in rows if r["wanted"] == k and r["impl"] == impl)

    for k in sorted({r["wanted"] for r in rows}):
        strong = row(k, "strong")
        weak = row(k, "fig6 dynamic")
        # the strong baseline pays the full prefetch price whatever K is
        assert strong["fraction_of_full_cost"] > 0.95
        # the weak iterator pays roughly K/N of the full cost
        assert weak["fraction_of_full_cost"] < 0.1
        assert weak["time_to_K"] * 10 < strong["time_to_K"]
    # weak cost grows with K
    weak_costs = [row(k, "fig6 dynamic")["time_to_K"]
                  for k in sorted({r["wanted"] for r in rows})]
    assert weak_costs == sorted(weak_costs)
