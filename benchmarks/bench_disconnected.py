"""E21 — disconnected operation: offline availability, reconcile, crashes."""

from repro.bench import (
    run_disconnected,
    run_geo_flap,
    run_outbox_crash,
    run_reconcile_cost,
)
from repro.bench.exp_disconnected import _IMPLS


def test_e21_offline_availability():
    result = run_disconnected()
    print()
    print(result)

    def row(impl, state):
        return next(r for r in result.rows
                    if r["impl"] == impl and r["state"] == state)

    # Everyone succeeds while connected.
    for impl, *_ in _IMPLS:
        assert row(impl, "connected")["success_rate"] == 1.0, impl

    # Figure 1 permits offline reads: full coverage from the warm cache,
    # instantly, with zero spec-conformance violations.
    offline_fig1 = row("fig1 immutable", "offline")
    assert offline_fig1["success_rate"] == 1.0
    assert offline_fig1["mean_coverage"] == 1.0
    assert offline_fig1["fig1_conformant"] == "yes"
    assert offline_fig1["mean_latency"] < 0.01

    # The reachability-requiring semantics are unavailable offline —
    # and discover it instantly instead of burning give_up_after (10s)
    # or the lock wait (2s): the DisconnectedError fail-fast satellite.
    for impl in ("fig5 pessimistic", "fig6 optimistic", "strong"):
        offline = row(impl, "offline")
        assert offline["success_rate"] == 0.0, impl
        assert offline["mean_latency"] < 0.1, impl


def test_e21a_reconcile_cost():
    result = run_reconcile_cost()
    print()
    print(result)
    rows = result.rows
    # Classification is exact at every depth: one conflict (tombstoned
    # name re-added remotely), one drop (plain tombstone), one locally
    # cancelled add/remove pair — everything else replays.
    for row in rows:
        assert row["conflicts"] == 1 and row["dropped"] == 1
        assert row["cancelled"] == 2
        assert row["replayed"] == row["queued"] - 4
        assert row["drain_s"] > 0
    # Deeper outboxes replay more but the batched pipeline amortizes:
    # cost grows far slower than linearly in the replayed count.
    first, last = rows[0], rows[-1]
    assert last["replayed"] > 8 * first["replayed"]
    assert last["drain_s"] < 8 * first["drain_s"] * 2


def test_e21b_outbox_crash():
    result = run_outbox_crash()
    print()
    print(result)

    def row(outbox):
        return next(r for r in result.rows if r["outbox"] == outbox)

    # The acceptance bar: the durable outbox is item-precise across a
    # client crash mid-drain — nothing lost, nothing applied twice,
    # zero invariant violations, on every seeded schedule.
    durable = row("durable")
    assert durable["lost"] == 0
    assert durable["leaked_adds"] == 0
    assert durable["double_applied"] == 0
    assert durable["violations"] == 0

    # The ablation proves durability (not luck) is doing the work.
    volatile = row("volatile")
    assert volatile["lost"] > 0
    assert volatile["leaked_adds"] > 0
    assert volatile["double_applied"] == 0


def test_e21c_geo_flap():
    result = run_geo_flap()
    print()
    print(result)
    for row in result.rows:
        assert row["flaps"] > 0 and row["sessions"] >= row["flaps"]
        assert row["replayed"] > 0          # offline work really landed
        assert row["violations"] == 0       # and the world settled clean
    with_dc = next(r for r in result.rows if r["dc_rate"] > 0)
    assert with_dc["dc_partitions"] > 0     # correlated partitions fired
