"""File -> layer map and cProfile attribution.

Layers are named after the modules.  Whole packages map by directory;
``net/`` and ``store/`` map module by module, so a new module there is
*unmapped* until someone decides which layer pays for it (the harness
test fails on it).  Measurement is from outside: one pass runs under
``cProfile`` and the stats are bucketed here; no source file is edited.

Attribution rule: a function defined in a ``src/repro`` file is charged
to its file's layer.  Built-in and stdlib frames (``heapq``, ``sorted``,
``dataclasses.replace``, ``pickle``) are charged to the layer of their
*immediate* caller through the profile's caller edges; what is left
(stdlib calling stdlib, the harness itself) goes to ``other``.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["LAYERS", "OTHER", "layer_of_module", "layer_of_path",
           "merged_stats", "attribute", "calls_to"]

OTHER = "other"

#: whole packages (every module inside, present or future)
_PACKAGES = {
    "sim": "sim",
    "weaksets": "weaksets",
    "dynsets": "weaksets",
    "spec": "spec",
    "obs": "obs",
    "wan": "wan",
    # experiment tables: never on a benchmark's path
    "bench": OTHER,
}

#: module-by-module packages; ``__init__`` façades only re-export
_MODULES = {
    "net": {
        "wire": "net.wire",
        "transport": "net.transport", "fabric": "net.transport",
        "node": "net.transport", "message": "net.transport",
        "address": "net.transport", "stats": "net.transport",
        "topology": "net.topology", "link": "net.topology",
        "partitions": "net.topology",
        "resilience": "net.resilience",
        "executor": "net.executor",
        "failures": "net.failures", "failure_detector": "net.failures",
        "__init__": OTHER,
    },
    "store": {
        "server": "store.server",
        "repository": "store.repository", "cache": "store.repository",
        "elements": "store.repository", "reachability": "store.repository",
        "offline": "store.repository",
        "fetchplan": "store.fetchplan",
        "writeplan": "store.writeplan",
        "wal": "store.wal", "recovery": "store.wal",
        "antientropy": "store.wal",
        "sharding": "store.sharding",
        "world": "store.world",
        "__init__": OTHER,
    },
}

#: top-level modules of the package
_TOP = {"__init__": OTHER, "__main__": OTHER, "errors": OTHER}

LAYERS = (
    "sim", "net.wire", "net.transport", "net.topology", "net.resilience",
    "net.executor", "net.failures", "store.server", "store.repository",
    "store.fetchplan", "store.writeplan", "store.wal", "store.sharding",
    "store.world", "weaksets", "spec", "obs", "wan",
)


def layer_of_module(relpath: str) -> Optional[str]:
    """Layer of a ``.py`` path relative to ``src/repro`` (None: unmapped)."""
    parts = relpath.replace(os.sep, "/").split("/")
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if len(parts) == 1:
        return _TOP.get(stem)
    package = parts[0]
    if package in _PACKAGES:
        return _PACKAGES[package]
    if package in _MODULES and len(parts) == 2:
        return _MODULES[package].get(stem)
    return None


_MARK = os.sep + "repro" + os.sep


def layer_of_path(filename: str) -> Optional[str]:
    """Layer of a profiled frame's file; None for frames outside the
    package (built-ins, stdlib, the harness)."""
    at = filename.rfind(_MARK)
    if at < 0:
        return None
    return layer_of_module(filename[at + len(_MARK):]) or OTHER


def _label(code) -> tuple[str, int, str]:
    """(file, line, name) of a profiled code object; built-ins are
    profiled under their description string."""
    if isinstance(code, str):
        return ("~", 0, code)
    return (code.co_filename, code.co_firstlineno, code.co_name)


def merged_stats(profile) -> dict:
    """``{(file, line, name): (calls, self_s, cumulative_s, callers)}``
    with ``callers = {(file, line, name): (calls, self_s, cumulative_s)}``
    of the callee's cost under that caller.

    Built from ``profile.getstats()`` rather than ``pstats``, which keys
    functions by the same label but lets the last entry *replace* the
    others: every dataclass's generated ``__init__`` is ``("<string>", 2,
    "__init__")``, so which one survived, and with it the total call
    count, depended on the addresses of the code objects.  Here entries
    that share a label are added up.
    """
    stats: dict = {}
    entries = profile.getstats()
    for entry in entries:
        func = _label(entry.code)
        calls, self_s, cumulative_s, callers = stats.get(
            func, (0, 0.0, 0.0, {}))
        stats[func] = (calls + entry.callcount, self_s + entry.inlinetime,
                       cumulative_s + entry.totaltime, callers)
    for entry in entries:
        caller = _label(entry.code)
        for sub in entry.calls or ():
            callers = stats[_label(sub.code)][3]
            calls, self_s, cumulative_s = callers.get(caller, (0, 0.0, 0.0))
            callers[caller] = (calls + sub.callcount,
                               self_s + sub.inlinetime,
                               cumulative_s + sub.totaltime)
    return stats


def attribute(stats: dict) -> dict:
    """Bucket :func:`merged_stats` entries into layers.

    Returns self seconds and exact self call counts per layer, the
    layer->layer inclusive-seconds matrix (time the row spent waiting on
    calls into the column), and the top functions by self time.
    """
    names = LAYERS + (OTHER,)
    self_s = dict.fromkeys(names, 0.0)
    self_calls = dict.fromkeys(names, 0)
    matrix = {a: dict.fromkeys(names, 0.0) for a in names}
    for func, (nc, tt, _ct, callers) in stats.items():
        own = layer_of_path(func[0])
        if own is not None:
            self_s[own] += tt
            self_calls[own] += nc
        edge_tt = edge_nc = 0
        for caller, (enc, ett, ect) in callers.items():
            caller_layer = layer_of_path(caller[0])
            if own is None:
                # A built-in or stdlib frame: its cost belongs to whoever
                # called it, when that is one of ours.
                if caller_layer is not None:
                    self_s[caller_layer] += ett
                    self_calls[caller_layer] += enc
                    edge_tt += ett
                    edge_nc += enc
            elif caller_layer is not None and caller_layer != own:
                matrix[caller_layer][own] += ect
        if own is None:
            self_s[OTHER] += tt - edge_tt
            self_calls[OTHER] += nc - edge_nc
    total_s = sum(self_s.values())
    top = sorted(stats.items(), key=lambda item: item[1][1], reverse=True)[:15]
    return {
        "self_share": {k: (v / total_s if total_s else 0.0)
                       for k, v in self_s.items()},
        "self_calls": self_calls,
        "total_calls": sum(entry[0] for entry in stats.values()),
        "profiled_s": total_s,
        "waits_on_s": {a: {b: round(s, 6) for b, s in row.items() if s}
                       for a, row in matrix.items() if any(row.values())},
        "top_functions": [
            {"function": f"{_short(func[0])}:{func[1]}:{func[2]}",
             "layer": layer_of_path(func[0]) or "builtin/stdlib",
             "self_s": round(entry[1], 6), "calls": entry[0]}
            for func, entry in top],
    }


def _short(filename: str) -> str:
    at = filename.rfind(_MARK)
    return filename[at + 1:] if at >= 0 else os.path.basename(filename)


def calls_to(stats: dict, module: str, function: str) -> int:
    """Total calls the profile saw to ``function`` defined in the
    package module ``module`` (e.g. ``"net/wire.py"``, ``"measure"``)."""
    suffix = _MARK + module.replace("/", os.sep)
    return sum(entry[0] for func, entry in stats.items()
               if func[2] == function and func[0].endswith(suffix))
