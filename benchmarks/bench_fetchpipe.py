"""E19 — the batched fetch pipeline vs the serial read path."""

from repro.bench import run_fetchpipe


def test_e19_fetchpipe():
    result = run_fetchpipe()
    rows = result.rows
    serial = next(r for r in rows if r["mode"] == "serial")
    print()
    print(result)

    # pipelining may never weaken fig6: zero violations anywhere
    assert all(r["violations"] == 0 for r in rows)

    # the acceptance bar: a batched drain is strictly faster than the
    # serial read path on the WAN for every window >= 4
    for r in rows:
        if r["mode"] == "window-sweep" and r["window"] >= 4:
            assert r["total_time"] < serial["total_time"]
            assert r["speedup_vs_serial"] > 1.0

    # wider windows monotonically shrink the drain on a quiet WAN
    window_rows = sorted((r for r in rows if r["mode"] == "window-sweep"),
                         key=lambda r: r["window"])
    totals = [r["total_time"] for r in window_rows]
    assert totals == sorted(totals, reverse=True)

    # slow start: the first yield never waits on coalesced company, so
    # time-to-first stays at the serial baseline's throughout the sweep
    for r in rows:
        assert r["time_to_first"] <= serial["time_to_first"] * 1.05
