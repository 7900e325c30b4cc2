"""`src/repro` mints no id from a process-global counter: an id that
reaches a wire payload must be a function of (code, seed), never of how
many worlds this process built before.  The one exception is
`net/message.py`'s `_msg_ids`, which `WireFormat.measure` canonicalises."""

import ast
from pathlib import Path

import repro


def _is_itertools_count(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return ((isinstance(func, ast.Attribute) and func.attr == "count"
             and isinstance(func.value, ast.Name) and func.value.id == "itertools")
            or (isinstance(func, ast.Name) and func.id == "count"))


def test_only_message_ids_are_counted_per_process():
    root = Path(repro.__file__).parent
    counters = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:           # module level only
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            if stmt.value is not None and any(
                    _is_itertools_count(node) for node in ast.walk(stmt.value)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                counters += [(path.relative_to(root).as_posix(), ast.unparse(t))
                             for t in targets]
    assert counters == [("net/message.py", "_msg_ids")]
