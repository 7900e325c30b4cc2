"""`src/repro` mints no id from a process-global counter: an id that
reaches a wire payload must be a function of (code, seed), never of how
many worlds this process built before.  The one exception is
`net/message.py`'s `_msg_ids`, which `WireFormat.measure` canonicalises.

Two shapes are looked for: a module-level `itertools.count`, and a
method that counts on its *class* (`Process._counter += 1` minted the
pid behind `proc-N`, which failure text carries onto the wire)."""

import ast
from pathlib import Path

import repro
from repro.sim import Kernel, Sleep


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


def _class_counters(tree: ast.Module) -> list[str]:
    """``Cls.attr += …`` inside a method of ``Cls``."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for func in cls.body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.AugAssign)
                        and isinstance(node.target, ast.Attribute)
                        and isinstance(node.target.value, ast.Name)
                        and node.target.value.id in (cls.name, "cls")):
                    found.append(ast.unparse(node.target))
    return found


def test_the_class_counter_guard_sees_the_shape_it_is_for():
    minted = ast.parse(
        "class Process:\n"
        "    _counter = 0\n"
        "    def __init__(self):\n"
        "        Process._counter += 1\n"
        "        self.steps += 1\n"
        "    @classmethod\n"
        "    def mint(cls):\n"
        "        cls._counter += 1\n")
    assert _class_counters(minted) == ["Process._counter", "cls._counter"]


def test_no_method_counts_on_its_class():
    root = Path(repro.__file__).parent
    counters = [(path.relative_to(root).as_posix(), target)
                for path in sorted(root.rglob("*.py"))
                for target in _class_counters(
                    ast.parse(path.read_text(encoding="utf-8")))]
    assert counters == []


def test_two_kernels_name_their_nth_anonymous_process_identically():
    def names():
        kernel = Kernel()

        def idle():
            yield Sleep(0.0)

        kernel.spawn(idle(), name="named")       # takes a pid too
        procs = [kernel.spawn(idle()) for _ in range(3)]
        return [(p.pid, p.name, p.done.name) for p in procs]

    first = names()
    assert first == names()
    assert first == [(2, "proc-2", "proc-2.done"), (3, "proc-3", "proc-3.done"),
                     (4, "proc-4", "proc-4.done")]
