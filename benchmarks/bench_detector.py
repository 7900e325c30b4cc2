"""E15 — the failure detector's accuracy/latency trade-off."""

from repro.bench import run_detector


def test_e15_detector_tradeoff():
    result = run_detector()
    print()
    print(result)
    rows = sorted(result.rows, key=lambda r: r["suspect_after"])

    latencies = [r["mean_detect_latency"] for r in rows]
    false_counts = [r["false_suspicions_total"] for r in rows]

    # the classic trade-off: detection latency rises with the threshold...
    assert latencies == sorted(latencies)
    # ...while false suspicions fall
    assert false_counts == sorted(false_counts, reverse=True)

    # the extremes: aggressive detects within ~1 ping period; conservative
    # produces (almost) no false suspicions on this loss rate
    assert latencies[0] < 1.0
    assert false_counts[-1] <= 1
    assert false_counts[0] > 10

    # recovery latency is threshold-independent (one successful ping
    # refreshes last_ok): identical across rows
    recoveries = {round(r["mean_recover_latency"], 6) for r in rows}
    assert len(recoveries) == 1
