"""E20 — the batched write pipeline vs the serial write path."""

from repro.bench import run_writepipe


def test_e20_writepipe():
    result = run_writepipe()
    rows = result.rows
    print()
    print(result)

    # batching may never weaken the specs: every populated world drains
    # under fig4 and fig6 semantics with zero conformance violations
    perf_rows = [r for r in rows if r["mode"] != "crash"]
    assert all(r["fig4_viol"] == 0 for r in perf_rows)
    assert all(r["fig6_viol"] == 0 for r in perf_rows)

    # the acceptance bar: >= 3x speedup for bulk population at
    # window >= 4, batch >= 4, 2 object replicas
    for r in rows:
        if (r["mode"] == "window-sweep" and r["window"] >= 4) \
                or (r["mode"] == "batch-sweep" and r["batch"] >= 4):
            assert r["replicas"] == 2
            assert r["speedup_vs_serial"] >= 3.0

    # wider windows monotonically shrink population on a quiet WAN
    window_rows = sorted((r for r in rows if r["mode"] == "window-sweep"),
                         key=lambda r: r["window"])
    totals = [r["total_time"] for r in window_rows]
    assert totals == sorted(totals, reverse=True)

    # the concurrent fan-out pays at every replica count: batched beats
    # serial even with zero replicas (pipelining + put coalescing alone)
    assert all(r["speedup_vs_serial"] > 1.0 for r in rows
               if r["mode"] == "replica-sweep")

    # crash legs: the group-committed WAL path settles to zero invariant
    # violations under mid-add_members crash injection; the WAL-off
    # ablation must leak (dangling members nothing heals) — and both
    # legs must have actually crashed, or the test proves nothing
    crash = {r["wal"]: r for r in rows if r["mode"] == "crash"}
    assert crash["on"]["crashes"] > 0
    assert crash["off"]["crashes"] > 0
    assert crash["on"]["recovery_viol"] == 0
    assert crash["off"]["recovery_viol"] > 0
