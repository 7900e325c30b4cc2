"""E13 — the system under a user population."""

from repro.bench import run_system


def test_e13_system_under_load():
    result = run_system()
    print()
    print(result)
    rows = {r["semantics"]: r for r in result.rows}
    dynamic = rows["dynamic"]
    strong = rows["strong"]
    prio = rows["strong + writer-priority"]

    # everyone's queries complete in this failure-free run
    assert dynamic["queries_ok"] == strong["queries_ok"] == 24
    assert dynamic["publishes_ok"] == strong["publishes_ok"] == 6

    # the headline: publishes never wait under weak semantics, and pay
    # dearly under strong (serialized behind every read-locked query)
    assert dynamic["publish_mean"] * 50 < strong["publish_mean"]

    # the batched fetch pipeline erased the old counterpoint: dynamic
    # used to pay a membership re-read per element, which made strong's
    # full-drain latency lower despite its lock waits.  With fetches
    # planned and coalesced, dynamic now wins the full drain too — while
    # strong still queues behind the publisher's write lock.
    assert dynamic["query_mean"] < strong["query_mean"]
    assert strong["query_mean"] < 8 * dynamic["query_mean"]

    # writer priority does not lose publishes and keeps them no slower
    assert prio["publishes_ok"] == 6
    assert prio["publish_mean"] <= strong["publish_mean"] * 1.5
