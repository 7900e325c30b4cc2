"""E6 — lock hold time and blocked writers under strong semantics (§3.1)."""

import math

from repro.bench import run_disconnection, run_lock_cost


def test_e6_lock_cost():
    result = run_lock_cost()
    print()
    print(result)
    rows = sorted(result.rows, key=lambda r: r["consumer_think_time"])

    # lock hold time grows with consumer think time (roughly linearly in
    # think_time x members), and the writer waits essentially all of it
    holds = [r["lock_hold_time"] for r in rows]
    waits = [r["writer_waited"] for r in rows]
    assert holds == sorted(holds)
    assert waits == sorted(waits)
    assert holds[-1] > 10 * holds[0]
    for r in rows:
        assert r["writer_waited"] >= r["lock_hold_time"] * 0.8


def test_e6b_disconnection():
    result = run_disconnection()
    print()
    print(result)
    rows = result.rows
    no_lease = next(r for r in rows if r["lease"] == "none")
    with_lease = next(r for r in rows if r["lease"] != "none")
    # without leases the disconnected reader blocks the writer past the
    # whole observation horizon ("indefinitely")
    assert not no_lease["writer_completed"]
    assert isinstance(no_lease["writer_waited"], float) and math.isnan(no_lease["writer_waited"])
    # a lease bounds the damage
    assert with_lease["writer_completed"]
    assert with_lease["writer_waited"] < 10.0
