"""E18 — crash-consistent recovery: WAL + replay + scrub vs. the ablation."""

from repro.bench import run_recovery


def test_e18_recovery():
    result = run_recovery()
    print()
    print(result)
    rows = result.rows

    def row(rate, wal):
        return next(r for r in rows
                    if r["crash_rate"] == rate and r["wal"] == wal)

    rates = sorted({r["crash_rate"] for r in rows})

    # The acceptance bar: with the WAL and recovery protocol on, every
    # seeded schedule settles with zero invariant violations — at every
    # crash rate, including the failure-free baseline.
    for rate in rates:
        assert row(rate, "on")["violations"] == 0, rate

    # The ablation proves the protocol is doing the work: the same
    # schedules without recovery leave lasting violations as soon as
    # crash points actually fire.
    for rate in rates:
        if rate == 0.0:
            assert row(rate, "off")["violations"] == 0
            continue
        assert row(rate, "off")["crashes"] > 0
        assert row(rate, "off")["violations"] > 0, rate

    # Recovery demonstrably engaged where crashes happened...
    for rate in rates:
        on = row(rate, "on")
        if rate == 0.0:
            assert on["replays"] == 0
            continue
        assert on["crashes"] > 0
        assert on["replays"] > 0 and on["replayed"] > 0
        # ...and its roll-forward work took measurable virtual time
        # (some crash points land at "begin", so replays redo real RPC).
        assert on["mean_replay_latency"] > 0
        # recovery is never free: the recovered system sends more
        # messages than the ablated one over the same schedule
        assert on["messages"] > row(rate, "off")["messages"]

    # Anti-entropy rides the same fabric in every configuration.
    assert all(r["sync_rounds"] > 0 for r in rows)
