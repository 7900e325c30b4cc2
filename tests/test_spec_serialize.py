"""Trace serialization round-trips and offline re-checking."""

import json


from repro.spec import (
    check_conformance,
    spec_by_id,
    trace_from_dict,
    trace_from_json,
    trace_to_dict,
    trace_to_json,
)
from repro.weaksets import DynamicSet, SnapshotSet

from helpers import CLIENT, drain_all, standard_world


def recorded_trace(cls=DynamicSet, **kwargs):
    kernel, net, world, elements = standard_world(members=5, **kwargs)
    ws = cls(world, CLIENT, "coll")
    drain_all(kernel, ws)
    return ws.last_trace, world


def test_round_trip_dict():
    kernel, net, world, elements = standard_world(members=3)
    for i in range(2):      # members whose objects have replica copies
        world.seed_member("coll", f"r{i}", value=i, home="s1",
                          replicas=("s2", "s3"))
    ws = DynamicSet(world, CLIENT, "coll")
    drain_all(kernel, ws)
    trace = ws.last_trace
    data = trace_to_dict(trace)
    rebuilt = trace_from_dict(data)
    assert rebuilt.coll_id == trace.coll_id
    assert rebuilt.client == trace.client
    assert rebuilt.impl_name == trace.impl_name
    assert len(rebuilt.invocations) == len(trace.invocations)
    for a, b in zip(rebuilt.invocations, trace.invocations):
        assert a.yielded_pre == b.yielded_pre
        assert a.yielded_post == b.yielded_post
        assert type(a.outcome) is type(b.outcome)
        assert a.snapshots == b.snapshots
        # replicas are compare=False, so equality cannot see them drop
        for rebuilt_snap, snap in zip(a.snapshots, b.snapshots):
            assert (sorted(e.locations for e in rebuilt_snap.members)
                    == sorted(e.locations for e in snap.members))
        assert ([e.locations for e in sorted(a.yielded_post)]
                == [e.locations for e in sorted(b.yielded_post)])
    assert any(e.replicas for e in rebuilt.yielded_last)
    # a trace stored before replicas were written still loads
    for inv in data["invocations"]:
        for member in inv["yielded_post"]:
            del member["replicas"]
    assert trace_from_dict(data).yielded_last == trace.yielded_last


def test_round_trip_json_is_valid_json():
    trace, world = recorded_trace()
    text = trace_to_json(trace, indent=2)
    json.loads(text)              # parses
    rebuilt = trace_from_json(text)
    assert rebuilt.yielded_last == trace.yielded_last
    assert rebuilt.terminated == trace.terminated


def test_offline_conformance_check_matches_online():
    """A deserialized trace produces the same verdicts (given the
    membership history) — the offline-checking workflow."""
    trace, world = recorded_trace(cls=SnapshotSet)
    history = world.membership_history("coll")
    rebuilt = trace_from_json(trace_to_json(trace))
    for spec_id in ["fig3", "fig4", "fig5", "fig6"]:
        online = check_conformance(trace, spec_by_id(spec_id), history=history)
        offline = check_conformance(rebuilt, spec_by_id(spec_id), history=history)
        assert online.conformant == offline.conformant, spec_id


def test_failed_trace_round_trips():
    kernel, net, world, elements = standard_world(n_servers=3, members=3)
    net.crash("s1")
    ws = SnapshotSet(world, CLIENT, "coll")
    drain_all(kernel, ws)
    trace = ws.last_trace
    assert trace.failed
    rebuilt = trace_from_json(trace_to_json(trace))
    assert rebuilt.failed
    assert rebuilt.invocations[-1].outcome.reason


def test_non_serializable_values_are_dropped_not_fatal():
    """Element values may be arbitrary objects; serialization keeps
    primitives and drops the rest (the checker never needs values)."""
    kernel, net, world, _ = standard_world(members=0)
    world.seed_member("coll", "obj", value=object(), home="s1")
    ws = DynamicSet(world, CLIENT, "coll")
    drain_all(kernel, ws)
    text = trace_to_json(ws.last_trace)
    rebuilt = trace_from_json(text)
    [inv] = [i for i in rebuilt.invocations if i.outcome.suspends]
    assert inv.outcome.value is None
