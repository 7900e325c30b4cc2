"""E1 — the conformance matrix benchmark.

Regenerates the implementation-versus-figure matrix and asserts its
shape: the diagonal conforms, strictly-weaker implementations violate
stricter figures.
"""

from repro.bench import run_conformance_matrix


def _cell(rows, impl, spec_id):
    row = next(r for r in rows if r["impl"] == impl)
    conforming, total = row[spec_id].split("/")
    return int(conforming), int(total)


def test_e1_conformance_matrix():
    result = run_conformance_matrix()
    print()
    print(result)
    rows = result.rows

    # the diagonal: every implementation satisfies its own figure
    for impl, spec_id in [("figure1", "fig1"), ("immutable", "fig3"),
                          ("snapshot", "fig4"), ("grow-only", "fig5"),
                          ("dynamic", "fig6"),
                          ("per-run-immutable", "fig3-per-run"),
                          ("per-run-grow-only", "fig5-per-run")]:
        ok, total = _cell(rows, impl, spec_id)
        assert ok == total, f"{impl} must conform to {spec_id}"

    # an immutable environment satisfies everything (the figures coincide)
    for spec_id in ["fig1", "fig3", "fig4", "fig5", "fig6",
                    "fig3-per-run", "fig5-per-run"]:
        ok, total = _cell(rows, "immutable", spec_id)
        assert ok == total

    # mutation breaks the immutable figures for the mutable design points
    for impl in ["snapshot", "grow-only", "dynamic", "per-run-grow-only"]:
        for spec_id in ["fig1", "fig3"]:
            ok, _ = _cell(rows, impl, spec_id)
            assert ok == 0, f"{impl} must violate {spec_id} under mutation"

    # the snapshot iterator misses additions, so it violates the
    # pre-state figures; the dynamic iterator's removals violate fig5
    assert _cell(rows, "snapshot", "fig6")[0] == 0
    assert _cell(rows, "dynamic", "fig5")[0] == 0
    # grow-only behaviour is also fig6-acceptable (growth, no failure runs)
    ok, total = _cell(rows, "grow-only", "fig6")
    assert ok == total

    # §3.1/§3.3: mid-run mutation violates the per-run variants unless
    # the run is protected (locks for per-run-immutable, ghosts for
    # per-run-grow-only)
    assert _cell(rows, "snapshot", "fig3-per-run")[0] == 0
    assert _cell(rows, "dynamic", "fig5-per-run")[0] == 0
    ghost_ok, ghost_total = _cell(rows, "per-run-grow-only", "fig5")
    assert ghost_ok == ghost_total   # ghosts keep even strict fig5 happy
                                     # within the run's clipped window
