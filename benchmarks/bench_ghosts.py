"""E10 — §3.3's ghost protocol vs plain immediate removal."""

from repro.bench import run_ghosts


def test_e10_ghosts():
    result = run_ghosts()
    print()
    print(result)
    rows = result.rows
    ghost = next(r for r in rows if r["policy"] == "grow-during-run")
    plain = next(r for r in rows if r["policy"].startswith("any"))

    # the ghost protocol keeps the run growth-only and covers every
    # initial member, deferring removals to run end
    assert ghost["grow_only_during_run"] is True or ghost["grow_only_during_run"] == "yes"
    assert ghost["coverage_of_initial"] == 1.0
    # the removals did take effect eventually (purged at run end)
    assert ghost["final_size"] < 10

    # immediate removal loses members mid-run and breaks grow-only
    assert plain["coverage_of_initial"] < 1.0
    assert plain["grow_only_during_run"] in (False, "no")
    # both end at the same final membership
    assert plain["final_size"] == ghost["final_size"]
