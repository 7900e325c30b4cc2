"""E11 — federated search across independent repositories."""

from repro.bench import run_federation


def test_e11_federation():
    result = run_federation()
    print()
    print(result)
    rows = {r["plan"]: r for r in result.rows}

    healthy = rows["union (healthy world)"]
    skip = rows["union (skip failures)"]
    single = rows["repo A only"]
    fail = rows["union (fail on failure)"]

    # the healthy federation answers with the full deduplicated union
    assert healthy["success"]
    assert healthy["answers"] == 8 + 8 + 4     # uniques + shared once
    assert healthy["dups_suppressed"] == 4

    # skip-on-failure degrades exactly to the surviving repository
    assert skip["success"]
    assert skip["answers"] == single["answers"] == 12

    # fail-on-failure is all-or-nothing brittle
    assert not fail["success"]
    assert fail["answers"] < skip["answers"]
