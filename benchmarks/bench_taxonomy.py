"""E8 — the Garcia-Molina & Wiederhold classification (§4)."""

from repro.bench import PAPER_TAXONOMY, run_taxonomy


def test_e8_taxonomy():
    result = run_taxonomy()
    print()
    print(result)
    rows = {r["spec"]: r for r in result.rows}
    for spec_id, (consistency, currency) in PAPER_TAXONOMY.items():
        assert rows[spec_id]["consistency"] == consistency, spec_id
        assert rows[spec_id]["currency"] == currency, spec_id
        assert rows[spec_id]["matches_paper"] is True or rows[spec_id]["matches_paper"] == "yes"
