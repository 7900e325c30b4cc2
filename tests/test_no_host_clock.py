"""`src/repro` reads no host clock: every number it produces is a
function of (code, seed).  Host time is measured by `perf/` only."""

import ast
from pathlib import Path

import repro

HOST_CLOCK_MODULES = {"time", "datetime"}


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield (node.module or "").split(".")[0]


def test_package_imports_no_host_clock():
    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if HOST_CLOCK_MODULES & set(_imported_modules(tree)):
            offenders.append(str(path))
    assert offenders == []
