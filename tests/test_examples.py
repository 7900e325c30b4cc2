"""Every example script runs clean end-to-end (they are part of the API)."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3        # the deliverable floor; we ship more


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "examples must narrate what they do"


def test_quickstart_output_shape():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert "yielded 6 articles" in proc.stdout
    assert "CONFORMS" in proc.stdout


def test_resilient_search_breaker_line():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "resilient_search.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert ("10 probes at the dead shelf: 0 reached the wire, "
            "10 failed fast") in proc.stdout
    assert "recovery effort: retries=" in proc.stdout
