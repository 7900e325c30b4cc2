"""Trace (de)serialization: ship recorded traces out of the simulator.

A trace serializes to plain dicts/JSON and round-trips losslessly, so
conformance checking can happen offline (store the traces from a long
fuzz run, re-check them against a revised spec later) and traces can be
diffed or archived as counterexamples.
"""

from __future__ import annotations

import json
from typing import Any

from ..errors import SpecificationError
from ..store.elements import Element
from .state import InvocationRecord, StateSnapshot
from .termination import Failed, Outcome, Returned, Yielded
from .trace import IterationTrace

__all__ = ["trace_to_dict", "trace_from_dict", "trace_to_json", "trace_from_json"]


def _element_to_dict(e: Element) -> dict:
    return {"name": e.name, "oid": e.oid, "home": e.home,
            "replicas": list(e.replicas)}


def _element_from_dict(d: dict) -> Element:
    # traces stored before replicas were written load with none
    return Element(name=d["name"], oid=d["oid"], home=d["home"],
                   replicas=tuple(d.get("replicas", ())))


def _members_to_list(members: frozenset[Element]) -> list[dict]:
    return [_element_to_dict(e) for e in sorted(members)]


def _members_from_list(items: list[dict]) -> frozenset[Element]:
    return frozenset(_element_from_dict(d) for d in items)


def _outcome_to_dict(outcome: Outcome) -> dict:
    if isinstance(outcome, Yielded):
        payload: dict[str, Any] = {"kind": "suspends",
                                   "element": _element_to_dict(outcome.element)}
        if isinstance(outcome.value, (str, int, float, bool, type(None))):
            payload["value"] = outcome.value
        return payload
    if isinstance(outcome, Returned):
        return {"kind": "returns"}
    if isinstance(outcome, Failed):
        return {"kind": "fails", "reason": outcome.reason}
    raise SpecificationError(f"unknown outcome {outcome!r}")


def _outcome_from_dict(d: dict) -> Outcome:
    kind = d.get("kind")
    if kind == "suspends":
        return Yielded(_element_from_dict(d["element"]), d.get("value"))
    if kind == "returns":
        return Returned()
    if kind == "fails":
        return Failed(d.get("reason", "failure"))
    raise SpecificationError(f"unknown outcome kind {kind!r}")


def _snapshot_to_dict(snap: StateSnapshot) -> dict:
    return {
        "time": snap.time,
        "members": _members_to_list(snap.members),
        "reachable_nodes": sorted(snap.reachable_nodes),
        "live_replicas": sorted(map(list, snap.live_replicas)),
    }


def _snapshot_from_dict(d: dict) -> StateSnapshot:
    return StateSnapshot(
        time=d["time"],
        members=_members_from_list(d["members"]),
        reachable_nodes=frozenset(d["reachable_nodes"]),
        # traces stored before live replica copies were recorded have none
        live_replicas=frozenset(map(tuple, d.get("live_replicas", ()))),
    )


def trace_to_dict(trace: IterationTrace) -> dict:
    return {
        "coll_id": trace.coll_id,
        "client": trace.client,
        "impl_name": trace.impl_name,
        "first_candidates": [_snapshot_to_dict(s) for s in trace.first_candidates],
        "invocations": [
            {
                "index": inv.index,
                "t_invoke": inv.t_invoke,
                "t_complete": inv.t_complete,
                "yielded_pre": _members_to_list(inv.yielded_pre),
                "yielded_post": _members_to_list(inv.yielded_post),
                "outcome": _outcome_to_dict(inv.outcome),
                "snapshots": [_snapshot_to_dict(s) for s in inv.snapshots],
            }
            for inv in trace.invocations
        ],
    }


def trace_from_dict(data: dict) -> IterationTrace:
    trace = IterationTrace(
        coll_id=data["coll_id"],
        client=data["client"],
        impl_name=data.get("impl_name", ""),
    )
    trace.first_candidates = tuple(
        _snapshot_from_dict(s) for s in data.get("first_candidates", [])
    )
    for inv_data in data.get("invocations", []):
        trace.invocations.append(InvocationRecord(
            index=inv_data["index"],
            t_invoke=inv_data["t_invoke"],
            t_complete=inv_data["t_complete"],
            yielded_pre=_members_from_list(inv_data["yielded_pre"]),
            yielded_post=_members_from_list(inv_data["yielded_post"]),
            outcome=_outcome_from_dict(inv_data["outcome"]),
            snapshots=tuple(_snapshot_from_dict(s)
                            for s in inv_data["snapshots"]),
        ))
    return trace


def trace_to_json(trace: IterationTrace, indent: int = 0) -> str:
    return json.dumps(trace_to_dict(trace), indent=indent or None, sort_keys=True)


def trace_from_json(text: str) -> IterationTrace:
    return trace_from_dict(json.loads(text))
