"""E24 — sharded membership registry.

Gates, all on virtual-time quantities of seed-deterministic runs:

* **throughput** — at fixed per-server capacity, the 4-shard ring must
  register at >= 2.5x the single-shard rate, and the curve must be
  monotone in ring size.
* **conformance** — every implementation (the E1 matrix plus the
  quorum and strong cross-shard protocols) conforms to its figure on
  every seed when reads scatter-gather across 3 shards + 2 mirrors.
* **rebalance** — add_shard/remove_shard under churn (with the
  migration target crashed mid-handoff on some seeds) completes with
  zero invariant violations, zero lost acked members, zero resurrected
  removals, and a scatter read that agrees with ground truth.
"""

from repro.bench import run_sharding

#: The tentpole gate: 4 shards vs 1 at identical per-server capacity.
MIN_SPEEDUP_4X = 2.5


def test_e24_sharding():
    result = run_sharding()
    print()
    print(result)

    m = result.metrics

    # Throughput scales with the ring, and the big arm clears the gate.
    assert m["speedup.4_vs_1"] >= MIN_SPEEDUP_4X, m
    assert (m["throughput.1_shard"] <= m["throughput.2_shard"]
            <= m["throughput.4_shard"]), m

    # Conformance: every impl, every seed, against its own figure.
    assert m["conformance.all"] == 1, m

    # Rebalance under churn (including mid-migration target crashes).
    assert m["rebalance.violations"] == 0, m
    assert m["rebalance.lost"] == 0, m
    assert m["rebalance.resurrected"] == 0, m
    assert m["rebalance.foreign"] == 0, m
    assert m["rebalance.scatter_mismatch"] == 0, m
    assert m["rebalance.incomplete"] == 0, m
