"""``src/`` is what runs: every module under ``src/repro`` is reached from
the code that runs (``src/``, ``examples/``, ``perf/``, ``ci/``), not
only from its own tests, with no module exempt — an oracle
only tests use lives under ``tests/`` (``seed_kernel.py``,
``checked_procedures.py``); a recorded run has one judge,
``check_conformance``, with no second checker beside it; a point
lookup has one path, with replica failover only in the fetch pipeline;
and no name, option or option value is left that only tests reach."""

import ast
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

import repro
import repro.bench
import repro.bench.artifact
import repro.dynsets
import repro.dynsets.namespace
import repro.net
import repro.obs
import repro.sim
import repro.sim.events
import repro.sim.process
import repro.spec
import repro.weaksets
from repro.net import (AIMDPolicy, AdaptiveLimiter, ExecutorPolicy,
                       FaultSchedule, ResilientClient, RetryPolicy, Topology)
from repro.bench import run_obs
from repro.net.executor import DISCIPLINES
from repro.sim import Kernel, Process, RandomRouter
from repro.spec import ConformanceReport, Constraint, PerRunConstraint
from repro.obs import Tracer
from repro.spec.trace import IterationTrace
from repro.store import (ClientCache, FetchPipeline, FetchPlanner, HashRing,
                         OfflineClient, Repository)
from repro.wan import (FacesWorkload, LibraryWorkload, PopulationSpec,
                       RestaurantsWorkload, ScenarioSpec, build_faces)

SRC = Path(repro.__file__).parent
ROOT = SRC.parent.parent
RUNNING = [SRC] + [ROOT / d for d in ("examples", "perf", "ci")]

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

    # A package ``__init__`` that loads a name in its own code uses it
    # (``repro.bench.ALL_EXPERIMENTS``, the registry the CLI runs); one
    # that only re-exports it does not, as ``_uses`` sees no load.
    reached: dict[str, set[str]] = {}
    for path, tree in trees.items():
        user = _module_name(path)
        for pair in _uses(path, tree):
            module, name = origin(pair)
            if user != module:
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


def _parameters(function) -> set[str]:
    return set(inspect.signature(function).parameters)


def test_no_name_or_dial_is_left_that_only_tests_reach():
    """The kernel keeps no trace log, a call carries no deadline, the
    bench artifact is gated by ``diff`` and E17 exports no trace, and
    each dial below is the constant every running caller got."""
    for module in ("repro.sim.tracing", "repro.bench.compare"):
        with pytest.raises(ImportError):
            importlib.import_module(module)
    assert not hasattr(repro.bench.artifact, "load_artifact")
    assert "PAPER_TAXONOMY" not in repro.bench.__all__
    assert not hasattr(repro.bench, "PAPER_TAXONOMY")
    assert "export_trace" not in _parameters(run_obs)
    gone = {"TraceLog", "TraceRecord", "Deadline", "UniformLatency", "line",
            "ring", "policy_for", "Effect", "metrics_from_records",
            "components", "install_lock_service"}
    for package in (repro, repro.sim, repro.sim.events, repro.net, repro.obs,
                    repro.weaksets, repro.dynsets.namespace):
        assert not gone & set(package.__all__), package.__name__
        assert not any(hasattr(package, name) for name in gone), package.__name__
    for owner, names in [
            (FaultSchedule, {"isolate_group_at", "rejoin_group_at",
                             "cut_link_at", "restore_link_at",
                             "crash_on_wal_step"}),
            (HashRing, {"moved_names"}), (Topology, {"has_node"}),
            (OfflineClient, {"read_value"}), (ClientCache, {"invalidate"}),
            (Process, {"_take_resume", "_kill"}), (RandomRouter, {"streams"}),
            (IterationTrace, {"yielded_last"}), (Constraint, {"check_pairwise"}),
            (Tracer, {"roots", "children"}),
            (LibraryWorkload, {"run_author_query"}),
            (RestaurantsWorkload, {"run_cuisine_query", "rotate_menu"}),
            (FacesWorkload, {"display_all_faces"}),
            (Repository, {"replace"})]:
        assert not any(hasattr(owner, name) for name in names), owner
    assert not hasattr(repro.sim.process, "_TERMINAL")
    assert str(inspect.signature(Kernel)) == "(seed: 'int' = 0)"
    assert not hasattr(Kernel(), "trace")
    assert [f.name for f in fields(AIMDPolicy)] == ["max_window"]
    assert _parameters(AdaptiveLimiter.on_success) == {"self"}
    assert _parameters(Repository._feed_limiter) == {"self", "exc"}
    assert DISCIPLINES == ("fifo", "priority")
    assert {f.name for f in fields(RetryPolicy)} == {
        "max_attempts", "base_delay", "max_delay"}
    assert set(ExecutorPolicy.__slots__) == {
        "concurrency", "queue_limit", "discipline", "brownout"}
    assert not {"intra_bandwidth", "inter_bandwidth", "serialize_rate"} & {
        f.name for f in fields(ScenarioSpec)}
    assert "pareto_alpha" not in {f.name for f in fields(PopulationSpec)}
    assert "default_budget" not in _parameters(ResilientClient)
    assert "deadline" not in _parameters(ResilientClient.call)
    assert "deadline" not in _parameters(ResilientClient.hedged_call)
    assert "priority" not in _parameters(FetchPipeline)
    assert "priority" not in _parameters(FetchPlanner)
    assert "policy" not in _parameters(build_faces)
