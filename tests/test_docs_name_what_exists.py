"""The docs name only what exists: every ``repro.…`` dotted name in
DESIGN.md, README.md, EXPERIMENTS.md and ``docs/*.md`` imports and
resolves, and every ``repro/….py`` path is a file under ``src/``.  A
name followed by ``/`` is an identifier, not a module (the schema id
``repro.bench_obs/1``)."""

import importlib
import re
from pathlib import Path

import pytest

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
