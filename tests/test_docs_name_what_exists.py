"""The docs name only what exists: every ``repro.…`` dotted name in
DESIGN.md, README.md, EXPERIMENTS.md and ``docs/*.md`` imports and
resolves, and every ``repro/….py`` path is a file under ``src/``.  A
name followed by ``/`` is an identifier, not a module (the schema id
``repro.bench_obs/1``).  EXPERIMENTS.md's tables are excerpts of
``experiments_output.txt``, the numbers CI holds, and its index has one
row per experiment that runs."""

import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

from repro.bench import ALL_EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent
DOCS = ([ROOT / name for name in ("DESIGN.md", "README.md", "EXPERIMENTS.md")]
        + sorted((ROOT / "docs").glob("*.md")))
DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+(?![\w/])")
PATH = re.compile(r"\brepro/[\w/]+\.py\b")


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_every_name_a_doc_gives_exists(doc):
    text = doc.read_text(encoding="utf-8")
    missing = sorted({m.group() for m in DOTTED.finditer(text)
                      if not _resolves(m.group())})
    missing += sorted({m.group() for m in PATH.finditer(text)
                       if not (ROOT / "src" / m.group()).is_file()})
    assert missing == []


def _sections(text: str):
    """(heading, lines) for every ``## `` section of a markdown text."""
    heading, lines = "", []
    for line in text.splitlines():
        if line.startswith("## "):
            yield heading, lines
            heading, lines = line, []
        else:
            lines.append(line)
    yield heading, lines


def test_every_experiments_table_line_is_a_gated_line():
    gated = {line.rstrip() for line in
             (ROOT / "experiments_output.txt").read_text(encoding="utf-8")
             .splitlines()}
    drifted = []
    for heading, lines in _sections(
            (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")):
        if not heading.startswith("## E"):
            continue
        fenced = False
        for line in lines:
            if line.startswith("```"):
                fenced = not fenced
            elif fenced and line.rstrip() not in gated:
                drifted.append(f"{heading[3:].split()[0]}: {line}")
    assert drifted == []


def test_the_index_has_one_row_per_experiment():
    index = dict(_sections(
        (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")))[
            "## Index of experiments"]
    rows = Counter(line.split("|")[1].strip() for line in index
                   if re.match(r"\| E\w+ \|", line))
    assert rows == Counter(list(ALL_EXPERIMENTS))
