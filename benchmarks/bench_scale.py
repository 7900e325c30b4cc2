"""E12 — scale sweep (simulated cost + message accounting)."""

from repro.bench import run_scale


def test_e12_scale():
    result = run_scale()
    print()
    print(result)
    rows = result.rows

    def row(members, impl_prefix):
        return next(r for r in rows
                    if r["members"] == members and r["impl"].startswith(impl_prefix))

    sizes = sorted({r["members"] for r in rows})

    for impl in ["strong", "fig4", "fig5", "fig6"]:
        overheads = [row(n, impl)["msgs_per_member"] for n in sizes]
        # O(1) messages per member: overhead flat (within constants)
        assert max(overheads) < 2 * min(overheads), impl
        # simulated time scales ~linearly with members
        times = [row(n, impl)["sim_time"] for n in sizes]
        assert times == sorted(times)
        assert times[-1] > 10 * times[0]

    for n in sizes:
        # fig5's pre-state semantics re-read membership every invocation:
        # ~2 more messages per member than first-state
        assert row(n, "fig5")["msgs_per_member"] > row(n, "fig4")["msgs_per_member"] + 1
        # fig6 plans its fetches through the batched pipeline, amortizing
        # membership reads across yields: per-member overhead lands within
        # a small constant of first-state and well below fig5's
        assert row(n, "fig6")["msgs_per_member"] < row(n, "fig4")["msgs_per_member"] + 0.5
        assert row(n, "fig6")["msgs_per_member"] < row(n, "fig5")["msgs_per_member"] - 1
