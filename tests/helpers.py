"""Shared fixtures for weak-set tests: standard worlds and drivers."""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Optional

from repro.net import CompactCodec, FixedLatency, Network, WireFormat, full_mesh
from repro.sim import Kernel
from repro.store import FetchPipeline, World
from repro.weaksets import install_lock_service

CLIENT = "client"
PRIMARY = "s0"

_oid_counter = itertools.count(1)


def fresh_oid(prefix: str = "obj") -> str:
    """Process-unique object identifier, for hand-built elements only:
    simulated code mints through ``World.fresh_oid`` so that oid widths —
    which go on the wire — never depend on process history."""
    return f"{prefix}-{next(_oid_counter)}"


def standard_world(n_servers: int = 4, policy: str = "any", seed: int = 0,
                   latency: float = 0.01, members: int = 0,
                   replicas: int = 0, with_locks: bool = False,
                   replica_lag: float = 0.5, coll_id: str = "coll",
                   bandwidth: float = 0.0, **world_kwargs):
    """A client plus ``n_servers`` object servers in a full mesh.

    Members are spread round-robin over the servers; ``bandwidth``
    (bytes/s, 0 = infinite) is set on every link.  Returns
    (kernel, net, world, elements) where elements is the seeded list.
    """
    nodes = [CLIENT] + [f"s{i}" for i in range(n_servers)]
    kernel = Kernel(seed=seed)
    net = Network(kernel, full_mesh(nodes, FixedLatency(latency),
                                    bandwidth=bandwidth))
    world = World(net, replica_lag=replica_lag, **world_kwargs)
    replica_nodes = [f"s{i}" for i in range(1, 1 + replicas)]
    world.create_collection(coll_id, primary=PRIMARY, replicas=replica_nodes,
                            policy=policy)
    elements = []
    for i in range(members):
        home = f"s{i % n_servers}"
        elements.append(world.seed_member(coll_id, f"m{i:03d}", value=f"v{i}", home=home))
    if with_locks:
        install_lock_service(world, PRIMARY)
    return kernel, net, world, elements


def sharded_world(n_shards: int = 3, mirrors: int = 0, policy: str = "any",
                  seed: int = 0, latency: float = 0.01, members: int = 0,
                  replica_lag: float = 0.5, coll_id: str = "coll",
                  spare: int = 1, **world_kwargs):
    """A client, ``n_shards`` shard servers, ``mirrors`` mirror nodes,
    and ``spare`` idle servers (rebalance targets) in a full mesh.

    Shards are ``s0..``, mirrors ``m0..``, spares ``x0..``.  Members are
    seeded with homes round-robin over the shard servers; their registry
    row lands wherever the ring says.  Returns (kernel, net, world,
    elements).
    """
    shard_nodes = tuple(f"s{i}" for i in range(n_shards))
    mirror_nodes = tuple(f"m{i}" for i in range(mirrors))
    spare_nodes = tuple(f"x{i}" for i in range(spare))
    nodes = [CLIENT, *shard_nodes, *mirror_nodes, *spare_nodes]
    kernel = Kernel(seed=seed)
    net = Network(kernel, full_mesh(nodes, FixedLatency(latency)))
    world = World(net, replica_lag=replica_lag, **world_kwargs)
    world.create_collection(coll_id, replicas=mirror_nodes, policy=policy,
                            shards=shard_nodes)
    elements = []
    for i in range(members):
        home = f"s{i % n_shards}"
        elements.append(world.seed_member(coll_id, f"m{i:03d}",
                                          value=f"v{i}", home=home))
    return kernel, net, world, elements


def count_ring_hashes(monkeypatch) -> list[str]:
    """Every token ``sharding._position`` hashes from here on — the
    ring's one expensive step, so its length counts placement work."""
    from repro.store import sharding

    hashed: list[str] = []
    position = sharding._position
    monkeypatch.setattr(sharding, "_position",
                        lambda token: hashed.append(token) or position(token))
    return hashed


def drain_all(kernel, weakset, max_yields: Optional[int] = None):
    """Run one full iteration of ``weakset`` and return its DrainResult."""
    iterator = weakset.elements()

    def proc():
        return (yield from iterator.drain(max_yields=max_yields))

    return kernel.run_process(proc())


def failover_fetch(repo, element):
    """Read one element through ``FetchPipeline(failover=True)``, the one
    read path that falls back to replica copies; returns its
    ``FetchResult`` (ok, gone or unreachable)."""
    pipe = FetchPipeline(repo, use_cache=False, failover=True)
    pipe.start()
    pipe.submit([element])
    try:
        return (yield from pipe.next_result())
    finally:
        pipe.stop()


def assert_sized_exactly(msg, codec: Optional[CompactCodec] = None) -> None:
    """The compact codec's size-only walk against its encoder, for one
    message: whole message, bare payload, and the transport's measure
    (canonical envelope ids).  ``codec`` defaults to a fresh one — an
    empty element memo; pass a long-lived one to exercise memo hits."""
    codec = codec if codec is not None else CompactCodec()
    encoded = len(codec.encode_message(msg))
    payload = bytearray()
    codec._encode_value(msg.payload, payload, {})
    canonical = replace(msg, msg_id=1,
                        reply_to=None if msg.reply_to is None else 1)
    for _memo in ("cold", "warm"):
        assert codec.message_size(msg) == encoded
        assert codec.payload_size(msg.payload) == len(payload)
        assert WireFormat(codec=codec).measure(msg) == \
            len(codec.encode_message(canonical))


def check_trace_without_memo(spec, trace):
    """``IteratorSpec.check_trace`` with ``reachable(x_σ)`` recomputed
    from the snapshot on every question — the reference the memoized
    check must agree with, violation for violation."""
    from repro.spec.iterspec import SpecViolationDetail, structural_violations

    def unjustified(basis):
        found = []
        for inv in trace.invocations:
            if not any(spec.permits(
                           inv, basis(snap), snap.reachable_of(basis(snap)))
                       for snap in inv.snapshots):
                snap = inv.exit_snapshot
                found.append(SpecViolationDetail(inv.index, spec.mismatch_message(
                    inv, basis(snap), snap.reachable_of(basis(snap)))))
        return found

    violations = structural_violations(trace)
    if spec.membership_basis != "first":
        return violations + unjustified(lambda snap: snap.members)
    if not trace.invocations:
        return violations
    best = None
    for first in trace.first_candidates or trace.invocations[0].snapshots:
        current = unjustified(lambda snap: first.members)
        if not current:
            return violations
        if best is None or len(current) < len(best):
            best = current
    return violations + (best or [])
