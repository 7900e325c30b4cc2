"""E3 — parallel, closest-first prefetch benchmark (§1.1 advantage 2)."""

from repro.bench import run_prefetch


def test_e3_prefetch():
    result = run_prefetch()
    print()
    print(result)
    rows = result.rows

    def row(files, variant_prefix):
        return next(r for r in rows
                    if r["files"] == files and r["variant"].startswith(variant_prefix))

    for files in sorted({r["files"] for r in rows}):
        strict = row(files, "strict")
        weak1 = row(files, "weak ls p=1")
        weak4 = row(files, "weak ls p=4")
        weak8 = row(files, "weak ls p=8 ")  # note the space: not random-order
        # parallelism cuts total latency, roughly linearly at this scale
        # (2.45x at 8 files: a weak ls is a conforming Figure 6 run, which
        # ends with a membership re-read and a primary confirm, +0.028 s a set)
        assert weak4["total_time"] < strict["total_time"] / 2.4
        assert weak8["total_time"] < weak1["total_time"] / 4
        # streaming cuts time-to-first even at parallelism 1
        assert weak1["time_to_first"] < strict["time_to_first"]

    # closest-first beats random order on total time at the larger size
    # (random order wastes early slots on far files)
    largest = max(r["files"] for r in rows)
    ordered = row(largest, "weak ls p=8 ")
    random_order = row(largest, "weak ls p=8 random-order")
    assert ordered["total_time"] <= random_order["total_time"]


def test_e3_rows_repeat_within_one_process():
    """The random-order row's iterator submits frozensets, whose order
    follows the hash seed and the process-global oid counter; the
    planner's unordered branch is name order, so a second run in the
    same process (other oids) reads the same."""
    assert run_prefetch(sizes=(8,)).rows == run_prefetch(sizes=(8,)).rows
