"""The `python -m repro` front door."""

from repro.__main__ import main


def test_overview(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "Specifying Weak Sets" in out
    for spec_id in ["fig1", "fig3", "fig4", "fig5", "fig6"]:
        assert spec_id in out


def test_specs_mode(capsys):
    assert main(["--specs"]) == 0
    out = capsys.readouterr().out
    assert "remembers yielded" in out
    assert "Figure 6" in out


def test_readme_design_space_table_is_the_printed_one(capsys):
    """README's Fig -> spec -> implementation table is printed from the
    rows, not maintained beside them."""
    from pathlib import Path

    assert main(["--specs"]) == 0
    table = capsys.readouterr().out.split("\n\n")[-1]
    assert table.startswith("spec_by_id") and "fig5-per-run" in table
    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert f"```\n{table}```" in readme.read_text(encoding="utf-8")


def test_demo_mode(capsys):
    assert main(["--demo"]) == 0
    out = capsys.readouterr().out
    assert "CONFORMS" in out
    assert "yielded 4 items" in out
