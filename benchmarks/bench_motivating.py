"""E7 — the three §1 motivating queries, end-to-end under failures."""

from repro.bench import run_motivating


def test_e7_motivating_queries():
    result = run_motivating()
    print()
    print(result)
    rows = result.rows

    def row(query_prefix, semantics):
        return next(r for r in rows
                    if r["query"].startswith(query_prefix)
                    and r["semantics"] == semantics)

    for query in ["WWW", "LIS", "Chinese"]:
        dyn = row(query, "dynamic")
        strong = row(query, "strong")
        # the weak query always completes with the full answer
        assert dyn["success"]
        assert dyn["answers"] > 0
        # streaming: the first answer arrives far before strong's
        if strong["success"]:
            assert dyn["time_to_first"] * 5 < strong["time_to_first"]
            # both get the same answers when strong happens to succeed
            assert dyn["answers"] >= strong["answers"]
        else:
            assert strong["answers"] == 0   # all-or-nothing
