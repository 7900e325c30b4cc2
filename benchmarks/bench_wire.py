"""E25 — the real wire: codec bytes, bandwidth, byte-aware batching."""

from repro.bench import run_wire


def test_e25_wire():
    result = run_wire()
    rows = result.rows
    by_mode = {}
    for r in rows:
        by_mode.setdefault(r["mode"], []).append(r)

    ratios = {r["member_size"]: r["naive_over_compact"]
              for r in by_mode["codec-ratio"]}
    caps = {r["max_bytes"]: r for r in by_mode["byte-cap"]}
    print()
    print(result)

    # the wire may not weaken the specs: every drain in every leg is
    # audited (fig6; the snapshot audit row is fig4) with zero violations
    assert all(r["violations"] == 0 for r in rows)

    # the codec gate: >= 4x fewer bytes on the metadata drain.  The
    # 2KB-body row is the honesty row — declared payload bytes are
    # charged identically by both codecs, so the ratio shrinks toward 1
    # as bodies dominate, but compact never ships MORE than naive.
    assert ratios[0] >= 4.0
    assert 1.0 <= ratios[2048] < ratios[0]

    # the batch sweet spot shifts once transmission cost is real: with
    # free links bigger batches never hurt (the window hides the round
    # trips); under the WAN preset a 16-item multi-get reply pays every
    # constrained store-and-forward hop serially and loses to batch=1
    sweep = {(r["link"], r["batch"]): r for r in by_mode["batch-sweep"]}
    assert sweep[("free", 16)]["total_time"] \
        <= sweep[("free", 1)]["total_time"] * 1.01
    assert sweep[("wan", 16)]["total_time"] \
        > sweep[("wan", 1)]["total_time"] * 1.10

    # the byte-cap gate: capping batches by bytes (item cap unchanged at
    # 16) must beat uncapped batching on drain throughput under WAN
    assert caps[49152]["throughput"] > caps[0]["throughput"]

    # bandwidth queuing is observable where it exists, and only there
    assert all(r["queue_p95"] == 0 for r in by_mode["batch-sweep"]
               if r["link"] == "free")
    assert any(r["queue_p95"] > 0 for r in by_mode["batch-sweep"]
               if r["link"] == "wan")

    # same seed, same bytes — the wire is deterministic
    det = by_mode["determinism"][0]
    assert det["throughput"] == 1.0 and det["violations"] == 0
