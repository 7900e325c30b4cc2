"""``src/`` is what runs: every module under ``src/repro`` is reached from
the code that runs (``src/``, ``examples/``, ``benchmarks/``, ``perf/``,
``ci/``), not only from its own tests, with no module exempt — an oracle
only tests use lives under ``tests/`` (``seed_kernel.py``,
``checked_procedures.py``); a recorded run has one judge,
``check_conformance``, with no second checker beside it; and a point
lookup has one path, with replica failover only in the fetch pipeline."""

import ast
import inspect
from dataclasses import fields
from pathlib import Path

import repro
import repro.dynsets
import repro.spec
from repro.net import Topology
from repro.spec import ConformanceReport, PerRunConstraint
from repro.store import Repository

SRC = Path(repro.__file__).parent
ROOT = SRC.parent.parent
RUNNING = [SRC] + [ROOT / d for d in ("examples", "benchmarks", "perf", "ci")]

def _module_name(path: Path) -> str:
    if SRC not in path.parents:
        return ""
    parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_from(path: Path, node: ast.ImportFrom) -> str:
    if not node.level:
        return node.module or ""
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package.pop()
    package = package[:len(package) - node.level + 1]
    return ".".join(package + ([node.module] if node.module else []))


def _imports(path: Path, tree: ast.AST):
    """(bound name, module, name) for every ``from module import name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _imported_from(path, node)
            for alias in node.names:
                yield alias.asname or alias.name, module, alias.name


def _uses(path: Path, tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) pairs the file reads: an imported name it loads, or
    an attribute it reads off an imported module.  A name imported only
    to be re-exported is not a use."""
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = {}
    uses = set()
    for name, module, imported in _imports(path, tree):
        bound[name] = f"{module}.{imported}"
        if name in loaded:
            uses.add((module, imported))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = (
                    alias.name if alias.asname else alias.name.partition(".")[0])
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in bound:
            dotted = bound[node.id].split(".") + chain[::-1]
            for i in range(1, len(dotted)):
                uses.add((".".join(dotted[:i]), dotted[i]))
    return uses


def _public_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _unreached_modules() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for root in RUNNING for path in sorted(root.rglob("*.py"))}
    # (module, name) re-exported by ``from x import name`` -> (x, name)
    reexports = {(_module_name(path), name): (module, imported)
                 for path, tree in trees.items() if SRC in path.parents
                 for name, module, imported in _imports(path, tree)}

    def origin(pair):
        for _ in range(len(reexports) + 1):
            if pair not in reexports:
                break
            pair = reexports[pair]
        return pair

    reached: dict[str, set[str]] = {}
    for path, tree in trees.items():
        user = _module_name(path)
        for pair in _uses(path, tree):
            module, name = origin(pair)
            package = module.rpartition(".")[0]
            if user not in (module, package):
                reached.setdefault(module, set()).add(name)
    return sorted(
        _module_name(path) for path, tree in trees.items()
        if SRC in path.parents
        and path.name not in ("__init__.py", "__main__.py")
        and not reached.get(_module_name(path), set()) & _public_names(tree))


def test_every_module_is_reached_by_what_runs():
    assert _unreached_modules() == []


def test_no_tested_only_name_is_exported():
    gone = {"FunctionalSet", "CheckedProcedures", "ProcedureViolation",
            "trace_to_json", "trace_from_json", "trace_to_dict",
            "trace_from_dict", "StatResult", "stat", "read_file"}
    for package in (repro, repro.spec, repro.dynsets):
        assert not gone & set(package.__all__)
        assert not any(hasattr(package, name) for name in gone)


def test_a_point_lookup_has_one_path():
    """Replica failover and hedging are the fetch pipeline's; no running
    file asks ``Repository.fetch`` for a second copy of them."""
    assert list(inspect.signature(Repository.fetch).parameters) == [
        "self", "element", "use_cache"]
    assert not hasattr(Repository, "_fetch_from_replicas")
    for root in RUNNING:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "attr", None) == "fetch"):
                    assert "failover" not in {k.arg for k in node.keywords}, path


def test_the_checker_has_no_second_judge_beside_it():
    gone = {"weak_guarantee_violations", "minimal_violating_prefix", "prefix_of"}
    assert not gone & set(repro.spec.__all__)
    assert not any(hasattr(repro.spec, name) for name in gone)
    assert not hasattr(PerRunConstraint, "check_windows")
    assert "complete" not in {f.name for f in fields(ConformanceReport)}


def test_topology_answers_no_question_the_transport_table_owns():
    assert not hasattr(Topology, "connected")
    assert not hasattr(Topology, "path_latency")
    assert not hasattr(Topology, "expected_latency")


def test_only_the_checker_clips_histories():
    callers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "clip_history" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                callers.append(path.relative_to(SRC).as_posix())
    assert sorted(set(callers)) == ["spec/checker.py"]
